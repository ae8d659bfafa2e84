"""Riemann-Liouville fractional integrals of positive order.

rl_left(f, u, alpha, b)  = J_{u+}^alpha f(b) = (1/Gamma(alpha)) int_u^b (b-t)^(alpha-1) f(t) dt
rl_right(f, v, alpha, a) = J_{v-}^alpha f(a) = (1/Gamma(alpha)) int_a^v (t-a)^(alpha-1) f(t) dt

Orders must satisfy alpha > 0 (the alpha = 0 identity operator is out of
scope); alpha = 1 reduces both to plain integration.  The weight singularity
for alpha < 1 sits at the evaluation point `at` and is removed analytically by
the quadrature layer, never sampled.  `cuts` are interior points where f is
not smooth; the quadrature layer integrates between them piece by piece.
The quadrature layer also checks the inputs (`integrate_singular` the
interval, the tolerances and then the order) and owns the tolerance
defaults: `abs_tol` and `rel_tol` keywords are passed on to it.
"""
from __future__ import annotations

from collections.abc import Callable

from .quad import integrate_singular
from .specialfn import gamma

__all__ = ["rl_left", "rl_right"]


def rl_left(
    f: Callable[[float], float], base: float, alpha: float, at: float, *, cuts: tuple[float, ...] = (), **tol
) -> float:
    """Left-sided operator J_{base+}^alpha f evaluated at `at`; requires base < at."""
    return integrate_singular(f, alpha, "upper", base, at, cuts, **tol) / gamma(alpha)


def rl_right(
    f: Callable[[float], float], base: float, alpha: float, at: float, *, cuts: tuple[float, ...] = (), **tol
) -> float:
    """Right-sided operator J_{base-}^alpha f evaluated at `at`; requires at < base."""
    return integrate_singular(f, alpha, "lower", at, base, cuts, **tol) / gamma(alpha)
