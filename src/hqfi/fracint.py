"""Riemann-Liouville fractional integrals of positive order.

rl_left(f, u, alpha, b)  = J_{u+}^alpha f(b) = (1/Gamma(alpha)) int_u^b (b-t)^(alpha-1) f(t) dt
rl_right(f, v, alpha, a) = J_{v-}^alpha f(a) = (1/Gamma(alpha)) int_a^v (t-a)^(alpha-1) f(t) dt

Orders must satisfy alpha > 0 (the alpha = 0 identity operator is out of
scope); alpha = 1 reduces both to plain integration.  The weight singularity
for alpha < 1 sits at the evaluation point `at` and is removed analytically by
the quadrature layer, never sampled.  `cuts` are interior points where f is
not smooth; the quadrature layer integrates between them piece by piece.
"""
from __future__ import annotations

import math
from typing import Callable

from .quad import QuadSpec, SingularWeight, integrate_singular
from .specialfn import gamma

__all__ = ["rl_left", "rl_right"]


def _check_order(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"fractional order must satisfy alpha > 0, got {alpha}")


def rl_left(
    f: Callable[[float], float],
    base: float,
    alpha: float,
    at: float,
    *,
    cuts: tuple[float, ...] = (),
    abs_tol: float = 1e-11,
    rel_tol: float = 1e-10,
) -> float:
    """Left-sided operator J_{base+}^alpha f evaluated at `at`; requires base < at."""
    _check_order(alpha)
    if not base < at:
        raise ValueError(f"rl_left requires base < at, got base={base}, at={at}")
    spec = QuadSpec(base, at, abs_tol=abs_tol, rel_tol=rel_tol)
    return integrate_singular(f, SingularWeight(alpha, "upper"), spec, cuts) / gamma(alpha)


def rl_right(
    f: Callable[[float], float],
    base: float,
    alpha: float,
    at: float,
    *,
    cuts: tuple[float, ...] = (),
    abs_tol: float = 1e-11,
    rel_tol: float = 1e-10,
) -> float:
    """Right-sided operator J_{base-}^alpha f evaluated at `at`; requires at < base."""
    _check_order(alpha)
    if not at < base:
        raise ValueError(f"rl_right requires at < base, got base={base}, at={at}")
    spec = QuadSpec(at, base, abs_tol=abs_tol, rel_tol=rel_tol)
    return integrate_singular(f, SingularWeight(alpha, "lower"), spec, cuts) / gamma(alpha)
