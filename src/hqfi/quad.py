"""Adaptive Gauss-Kronrod quadrature with analytic endpoint-weight handling.

The base rule is the nested 7/15 Gauss-Kronrod pair.  The driver keeps a
worst-first heap of subintervals and bisects until the summed error estimate
meets the requested tolerance, so results are deterministic for a given
integrand, interval and tolerances; a first panel that already meets it is
the result.  A call sets only those, as plain arguments: `lo`, `hi` and the
`abs_tol`/`rel_tol` keywords, whose defaults _ABS_TOL and _REL_TOL are the
package's only quadrature defaults.  No panel is bisected past depth 60, and
no run holds more than 10,000 panels.  A run whose panels all sit at their
roundoff floor, 50*eps times the panel's integral of |f|, fails at once when
their sum is above the tolerance, since no bisection lowers it.  A panel
wider than one ulp samples only points strictly inside it, and clamps its
nodes only when an outer node rounds onto an endpoint, as on a panel a few
ulps wide.

Integrands must stay finite on the closed interval: a panel whose result
or error estimate is NaN or infinite raises QuadratureError.  Integrable endpoint
weights (t - lo)^(g-1) or (hi - t)^(g-1) are not sampled: `integrate_singular`
removes them exactly by substitution, which is the only reliable way to reach
tight tolerances near an algebraic singularity in double precision.  It
takes the weight as two plain arguments, the exponent g > 0 and the side
('lower' or 'upper'), and checks them after the interval and the tolerances,
which both entry points check first (`_check`).
"""
from __future__ import annotations

import heapq
import math
from collections.abc import Callable

__all__ = [
    "QuadratureError",
    "gk15",
    "integrate",
    "integrate_singular",
]

_EPS = 2.220446049250313e-16
_MAX_PANELS = 10_000
_MAX_DEPTH = 60
# every layer above passes its `abs_tol` and `rel_tol` keywords on to here
_ABS_TOL = 1e-11
_REL_TOL = 1e-10

# QUADPACK dqk15 table, positive abscissae only; the Gauss-7 nodes are the
# odd-indexed rows and node 0.  Exactness through degree 22 is pinned by tests.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)


class QuadratureError(RuntimeError):
    """Raised when the requested tolerance is unreachable: past a budget, below the roundoff floor,
    or on a panel whose result or error estimate is not finite."""


def _check(lo: float, hi: float, abs_tol: float, rel_tol: float) -> None:
    """An integration request: a finite interval with lo < hi, then finite tolerances abs_tol > 0, rel_tol >= 0."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("quadrature interval must be finite")
    if not lo < hi:
        raise ValueError(f"require lo < hi, got [{lo}, {hi}]")
    if abs_tol <= 0.0 or rel_tol < 0.0:
        raise ValueError("require abs_tol > 0 and rel_tol >= 0")
    # a NaN tolerance fails every comparison and an infinite one passes every panel
    if not (math.isfinite(abs_tol) and math.isfinite(rel_tol)):
        raise ValueError(f"quadrature tolerances must be finite, got abs_tol={abs_tol}, rel_tol={rel_tol}")


def gk15(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """One 7/15 panel on [lo, hi]; returns (result, error_estimate).

    Evaluation points stay inside the open interval (a 1-ulp panel has no
    float there), so integrands produced by the singular substitution are
    never sampled at a removed endpoint.  When both outer nodes land strictly
    inside, every node does (float * and - are monotone); only when an outer
    node rounds onto or past an endpoint, as on a panel a few ulps wide, are
    the nodes clamped to the nearest interior floats.  f is called at the
    centre, then at c - d_i and c + d_i for i = 0..6, outermost first.
    """
    x0, x1, x2, x3, x4, x5, x6 = _XGK
    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    g0, g1, g2, g3 = _WG
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    d0 = h * x0
    d1 = h * x1
    d2 = h * x2
    d3 = h * x3
    d4 = h * x4
    d5 = h * x5
    d6 = h * x6
    tc = c
    l0, l1, l2, l3, l4, l5, l6 = c - d0, c - d1, c - d2, c - d3, c - d4, c - d5, c - d6
    r0, r1, r2, r3, r4, r5, r6 = c + d0, c + d1, c + d2, c + d3, c + d4, c + d5, c + d6
    if not (lo < l0 and r0 < hi):
        inlo = math.nextafter(lo, hi)
        inhi = math.nextafter(hi, lo)
        tc = min(max(c, inlo), inhi)
        l0, l1, l2, l3, l4, l5, l6 = [max(t, inlo) for t in (l0, l1, l2, l3, l4, l5, l6)]
        r0, r1, r2, r3, r4, r5, r6 = [min(t, inhi) for t in (r0, r1, r2, r3, r4, r5, r6)]
    fc = f(tc)
    a0 = f(l0)
    b0 = f(r0)
    a1 = f(l1)
    b1 = f(r1)
    a2 = f(l2)
    b2 = f(r2)
    a3 = f(l3)
    b3 = f(r3)
    a4 = f(l4)
    b4 = f(r4)
    a5 = f(l5)
    b5 = f(r5)
    a6 = f(l6)
    b6 = f(r6)
    s1 = a1 + b1
    s3 = a3 + b3
    s5 = a5 + b5
    # every sum runs in the order of the QUADPACK loop: centre term, then i = 0..6
    resg = g3 * fc + g0 * s1 + g1 * s3 + g2 * s5
    resk = (
        w7 * fc + w0 * (a0 + b0) + w1 * s1 + w2 * (a2 + b2) + w3 * s3
        + w4 * (a4 + b4) + w5 * s5 + w6 * (a6 + b6)
    )
    resabs = (
        w7 * abs(fc) + w0 * (abs(a0) + abs(b0)) + w1 * (abs(a1) + abs(b1))
        + w2 * (abs(a2) + abs(b2)) + w3 * (abs(a3) + abs(b3)) + w4 * (abs(a4) + abs(b4))
        + w5 * (abs(a5) + abs(b5)) + w6 * (abs(a6) + abs(b6))
    )
    reskh = 0.5 * resk
    resasc = (
        w7 * abs(fc - reskh)
        + w0 * (abs(a0 - reskh) + abs(b0 - reskh)) + w1 * (abs(a1 - reskh) + abs(b1 - reskh))
        + w2 * (abs(a2 - reskh) + abs(b2 - reskh)) + w3 * (abs(a3 - reskh) + abs(b3 - reskh))
        + w4 * (abs(a4 - reskh) + abs(b4 - reskh)) + w5 * (abs(a5 - reskh) + abs(b5 - reskh))
        + w6 * (abs(a6 - reskh) + abs(b6 - reskh))
    )
    result = resk * h
    resabs *= h
    resasc *= h
    err = abs((resk - resg) * h)
    # QUADPACK damping: |K-G| wildly overestimates the Kronrod error, and the
    # raw estimate never terminates on integrable spikes within the depth budget.
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 1e-290:
        err = max(50.0 * _EPS * resabs, err)
    return result, err


def _at_floor(res: float, err: float) -> bool:
    """Whether a gk15 panel's error is its roundoff floor 50*eps*resabs, with resabs = |res|.

    That holds exactly when f keeps one sign on the panel (resabs then sums
    the same terms as the result) and the floor was the larger estimate.  The
    halves of such a panel have floors that sum to about the same, so no
    bisection lowers it: QUADPACK's roundoff case (QAGS, ier = 2).  A panel
    where f changes sign is never taken to be at its floor.
    """
    return err == 50.0 * _EPS * abs(res)


def _nonfinite(lo: float, hi: float, plo: float, phi: float, res: float, err: float) -> QuadratureError:
    # a NaN error estimate fails every comparison, so the loop would stop and return the NaN
    return QuadratureError(
        f"non-finite integrand on [{lo}, {hi}]: panel [{plo}, {phi}] gives {res!r} with error {err!r}"
    )


def integrate(
    f: Callable[[float], float], lo: float, hi: float, *, abs_tol: float = _ABS_TOL, rel_tol: float = _REL_TOL
) -> float:
    """Integrate f over [lo, hi] to max(abs_tol, rel_tol*|I|)."""
    _check(lo, hi, abs_tol, rel_tol)
    res, err = gk15(f, lo, hi)
    if not (math.isfinite(res) and math.isfinite(err)):
        raise _nonfinite(lo, hi, lo, hi, res, err)
    if err <= max(abs_tol, rel_tol * abs(res)):
        # what the loop below returns when it runs zero times: fsum([res]) == res + 0.0
        return res + 0.0
    # heap entries: (-err, tiebreak, lo, hi, depth, result, err)
    heap = [(-err, 0, lo, hi, 0, res, err)]
    seq = 1
    total_err = err
    result = res
    live = 0 if _at_floor(res, err) else 1  # panels whose error bisection can still lower
    while total_err > (tol := max(abs_tol, rel_tol * abs(result))):
        if not live:
            raise QuadratureError(
                f"no convergence on [{lo}, {hi}]: error {total_err:.3e} is the roundoff floor "
                f"50*eps*resabs of all {len(heap)} panels, above the tolerance {tol:.3e}"
            )
        _, _, plo, phi, depth, pres, perr = heapq.heappop(heap)
        if depth >= _MAX_DEPTH:
            raise QuadratureError(
                f"no convergence on [{lo}, {hi}]: error {total_err:.3e} "
                f"after depth {depth}, worst interval [{plo}, {phi}]"
            )
        mid = 0.5 * (plo + phi)
        if not plo < mid < phi:
            raise QuadratureError(
                f"no convergence on [{lo}, {hi}]: interval [{plo}, {phi}] "
                f"hit the roundoff limit with error {total_err:.3e}"
            )
        if len(heap) + 2 > _MAX_PANELS:
            raise QuadratureError(
                f"no convergence on [{lo}, {hi}]: panel budget {_MAX_PANELS} exhausted"
            )
        rl, el = gk15(f, plo, mid)
        rr, er = gk15(f, mid, phi)
        if not (math.isfinite(rl) and math.isfinite(el)):
            raise _nonfinite(lo, hi, plo, mid, rl, el)
        if not (math.isfinite(rr) and math.isfinite(er)):
            raise _nonfinite(lo, hi, mid, phi, rr, er)
        live += (not _at_floor(rl, el)) + (not _at_floor(rr, er)) - (not _at_floor(pres, perr))
        heapq.heappush(heap, (-el, seq, plo, mid, depth + 1, rl, el))
        heapq.heappush(heap, (-er, seq + 1, mid, phi, depth + 1, rr, er))
        seq += 2
        total_err = math.fsum(entry[6] for entry in heap)
        result = math.fsum(entry[5] for entry in heap)
    # fsum rounds the exact sum once, so the heap's panel order cannot change the
    # result; it also turns a lone -0.0 panel into 0.0, as the loop's sums do
    return math.fsum(entry[5] for entry in heap)


def integrate_singular(
    f: Callable[[float], float],
    exponent: float,
    side: str,
    lo: float,
    hi: float,
    cuts: tuple[float, ...] = (),
    *,
    abs_tol: float = _ABS_TOL,
    rel_tol: float = _REL_TOL,
) -> float:
    """Integrate f(t) * w(t) over [lo, hi] with the endpoint weight
    w(t) = (t - lo)^(exponent-1) (side 'lower') or (hi - t)^(exponent-1) (side 'upper').

    For exponent g < 1 the weight is removed exactly: with u = (t - lo)^g the
    lower-weighted integral becomes (1/g) * int_0^{(hi-lo)^g} f(lo + u^(1/g)) du,
    and mirrored for the upper side.  f itself must stay finite on the closed
    interval; g == 1 reduces to the plain rule.

    Interior `cuts` (points where f is not smooth) split the interval, and the
    pieces are summed left to right.  Only the piece that touches the weight's
    singular end needs the substitution; the others sample w directly, since it
    is bounded away from that end.
    """
    _check(lo, hi, abs_tol, rel_tol)
    if not (math.isfinite(exponent) and exponent > 0.0):
        raise ValueError("weight exponent must be positive and finite")
    if side not in ("lower", "upper"):
        raise ValueError(f"weight side must be 'lower' or 'upper', got {side!r}")
    g = exponent
    lower = side == "lower"
    w = (lambda t: (t - lo) ** (g - 1.0)) if lower else (lambda t: (hi - t) ** (g - 1.0))
    interior = sorted({c for c in cuts if lo < c < hi})
    if interior:
        edges = [lo, *interior, hi]
        total = 0.0
        for plo, phi in zip(edges, edges[1:]):
            if (plo == lo) if lower else (phi == hi):
                total += integrate_singular(f, g, side, plo, phi, abs_tol=abs_tol, rel_tol=rel_tol)
            else:
                total += integrate(lambda t: w(t) * f(t), plo, phi, abs_tol=abs_tol, rel_tol=rel_tol)
        return total
    if g == 1.0:
        return integrate(f, lo, hi, abs_tol=abs_tol, rel_tol=rel_tol)
    if g > 1.0:
        # weight is continuous (0 at the endpoint); sample it directly
        return integrate(lambda t: w(t) * f(t), lo, hi, abs_tol=abs_tol, rel_tol=rel_tol)
    span_g = (hi - lo) ** g
    inv_g = 1.0 / g
    if lower:
        sub = lambda u: f(min(lo + u**inv_g, hi))
    else:
        sub = lambda u: f(max(hi - u**inv_g, lo))
    return integrate(sub, 0.0, span_g, abs_tol=abs_tol * g, rel_tol=rel_tol) / g
