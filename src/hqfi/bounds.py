"""The weighted fractional identity and the three bound families built on it.

For f differentiable on [a, b] in (0, inf), x in [a, b], lam in [0, 1] and
alpha > 0, the identity value is

  I(f; a, b, x, lam, alpha) =
      (1-lam) [wa + wb] f(x) + lam [wa f(a) + wb f(b)]
      - Gamma(alpha+1) [ J_{1/x+}^alpha (f o inv)(1/a) + J_{1/x-}^alpha (f o inv)(1/b) ]

with wa = ((x-a)/(ax))^alpha, wb = ((b-x)/(bx))^alpha and inv(t) = 1/t.
`identity_lhs` assembles exactly that, in two parts: the lam-free pieces
(`_lhs_parts`: the fractional term, which holds all of its quadrature, and
wa + wb, f(x), wa f(a) + wb f(b)), then the boundary term at one lam
(`_lhs_at`).  A sweep over lam computes the first part once per
(f, a, b, x, alpha).  `identity_rhs` evaluates the equivalent kernel-integral
form, and the pair is the residual check the harness sweeps.  Its kernel
t^alpha - lam is linear in lam and has no kink, so each brace is
pref (P - lam Q) with two kink-free integrals: Q per (f, a, b, x)
(`_rhs_qs`), P per (f, a, b, x, alpha) (`_rhs_parts`), and the value at one
lam on top (`_rhs_at`).  Only the bounds' |t^alpha - lam| has a kink.

When |f'|^q is harmonically quasi-convex on [a, b], |I| is bounded by three
families (T22: power-mean, T23: its q=1 reduction shape, T24: Holder).  All
three have the shape c1^power * {C2 brace + C3 brace} at a kernel-moment
exponent kq, so one table (`_FAMILIES`) holds what tells them apart and one
evaluator, `_bounds`, assembles any of them:

  family  kq         c1 power  as_stated denominators  as_stated second sup
  T22     q          1 - 1/q   x^{2q}, b^{2q}          {|f'(x)|, |f'(a)|}
  T23     1          0         x^{2q}, b^{2q}          {|f'(x)|, |f'(b)|}
  T24     q/(q-1)    1/q       x^{2kq}, b^{2kq}        {|f'(x)|, |f'(b)|}

Each family carries two variants: `symmetric_corrected` is the proof-faithful
form (denominators x^2, b^2; second sup over {|f'(x)|, |f'(b)|}); `as_stated`
reproduces the source text verbatim, which is refutable and kept for
counterexample hunting.

`bound` and the harness sweep call the same per-point evaluator, `_bounds`:
at one (f, a, b, x, lam, alpha) it takes the brace powers and the derivative
sups once and returns the bound of every (q, theorem, variant) row it is
given.  `bound` passes it one row; the sweep builds its rows once per run
(`_rows`), so each record holds the bits `bound` gives at its point.

The brace moments c2(...)^(1/kq) and c3(...)^(1/kq) do not depend on f, so
`_brace_moment` memoizes them per (alpha, lam, kq, r) for the process
lifetime.  Each is the kernels' lam step on a lam-free part at (alpha, kq, r),
which `_brace_part` memoizes in turn, so a sweep over lam computes each part's
2F1 values once.  Both caches have the same fixed size (`_BRACE_CACHE_SIZE`).
"""
from __future__ import annotations

import enum
import functools
import math
from collections import namedtuple

from .fracint import rl_left, rl_right
from .harmonic import IntervalDomain, ScalarFunction, _Record
from .kernels import _c2_at, _c2_part, _c3_at, _c3_part, _check_args, _moment, c1, integrate_kinked
from .specialfn import gamma

__all__ = [
    "Theorem",
    "Variant",
    "ParamPoint",
    "BoundReport",
    "identity_lhs",
    "identity_rhs",
    "bound",
    "evaluate_bound",
    "specialize",
    "ostrowski_bound",
    "SPECIAL_KINDS",
]

_SLACK_TOL = 1e-9


class Theorem(str, enum.Enum):
    T22 = "T22"
    T23 = "T23"
    T24 = "T24"


class Variant(str, enum.Enum):
    AS_STATED = "as_stated"
    SYMMETRIC_CORRECTED = "symmetric_corrected"


SPECIAL_KINDS = ("simpson", "midpoint", "trapezoid", "ostrowski", "hadamard_weighted")


class ParamPoint(_Record):
    """Evaluation point (a, b, x, lam, alpha, q) with 0 < a <= x <= b, a < b."""

    __slots__ = _fields = ("a", "b", "x", "lam", "alpha", "q")

    def __init__(self, a: float, b: float, x: float, lam: float, alpha: float, q: float = 1.0) -> None:
        if not (math.isfinite(a) and math.isfinite(b) and 0.0 < a < b):
            raise ValueError(f"require 0 < a < b, got a={a}, b={b}")
        if not a <= x <= b:
            raise ValueError(f"require x in [a, b], got x={x} outside [{a}, {b}]")
        _check_args(alpha, lam, q, 1.0)
        self._init(a, b, x, lam, alpha, q)

    @property
    def h_point(self) -> float:
        """Harmonic mean 2ab/(a+b) of the interval endpoints."""
        return 2.0 * self.a * self.b / (self.a + self.b)


class BoundReport(namedtuple("BoundReport", "theorem variant lhs_abs bound slack holds")):
    """One bound evaluation: |identity lhs| against a theorem bound."""

    __slots__ = ()


# The lam-free pieces of identity_lhs at one (f, a, b, x, alpha): wa + wb, f(x), wa f(a) + wb f(b), fractional part
_LhsParts = namedtuple("_LhsParts", "weights fx ends fractional")


def _lhs_parts(f: ScalarFunction, a: float, b: float, x: float, alpha: float, tol: dict) -> _LhsParts:
    """Everything identity_lhs needs except lam; the fractional integrals are all its quadrature.

    At x = a the left fractional interval [1/x, 1/a] is empty and its operator
    contributes 0 (mirrored at x = b); the weight wa (wb) vanishes with it.
    Each operator's integral is cut at t = 1/u for every break u of f inside it.
    """
    wa = ((x - a) / (a * x)) ** alpha
    wb = ((b - x) / (b * x)) ** alpha
    fx = f(x)
    ends = wa * f(a) + wb * f(b)

    # the user's callable itself, not ScalarFunction.__call__: one frame fewer per node
    value = f.value

    def recip(t: float) -> float:
        return value(1.0 / t)

    frac = 0.0
    if x > a:
        cuts = tuple(1.0 / u for u in f.breaks if a < u < x)
        frac += rl_left(recip, 1.0 / x, alpha, 1.0 / a, cuts=cuts, **tol)
    if x < b:
        cuts = tuple(1.0 / u for u in f.breaks if x < u < b)
        frac += rl_right(recip, 1.0 / x, alpha, 1.0 / b, cuts=cuts, **tol)
    return _LhsParts(wa + wb, fx, ends, gamma(alpha + 1.0) * frac)


def _lhs_at(parts: _LhsParts, lam: float) -> float:
    """identity_lhs at one lam: (1-lam) [wa + wb] f(x) + lam [wa f(a) + wb f(b)] minus the fractional part."""
    return (1.0 - lam) * parts.weights * parts.fx + lam * parts.ends - parts.fractional


def identity_lhs(f: ScalarFunction, p: ParamPoint, **tol) -> float:
    """Boundary/fractional assembly of the identity value I(f; p).

    The fractional part does not depend on lam, so a sweep over lam computes
    it once (`_lhs_parts`) and assembles each lam's boundary term on top of it
    (`_lhs_at`); this function is that composition at one point.  The
    `abs_tol` and `rel_tol` keywords are passed on to `integrate`.
    """
    return _lhs_at(_lhs_parts(f, p.a, p.b, p.x, p.alpha, tol), p.lam)


def _brace_cuts(f: ScalarFunction, end: float, x: float) -> tuple[float, ...]:
    """The points t = (end*x/u - x)/(end - x) where end*x/A, A = t*end + (1-t)*x, crosses a break u of f."""
    lo, hi = min(end, x), max(end, x)
    return tuple((end * x / u - x) / (end - x) for u in f.breaks if lo < u < hi)


def _kernel_p(f: ScalarFunction, end: float, x: float, alpha: float, tol: dict) -> float:
    """P = int_0^1 t^alpha A^{-2} f'(end*x/A) dt, A = t*end + (1-t)*x.

    No kink (lam = 0): cut only at the breaks, and taken in s = t^(1/k) below alpha = 1.
    """
    df = f.df

    def g(t: float) -> float:
        A = t * end + (1.0 - t) * x
        return t**alpha / (A * A) * df(end * x / A)

    return integrate_kinked(g, alpha, 0.0, cuts=_brace_cuts(f, end, x), **tol)


def _kernel_q(f: ScalarFunction, end: float, x: float, tol: dict) -> float:
    """Q = int_0^1 A^{-2} f'(end*x/A) dt, A = t*end + (1-t)*x: smooth in t between the breaks (k = 1)."""
    df = f.df

    def g(t: float) -> float:
        A = t * end + (1.0 - t) * x
        return df(end * x / A) / (A * A)

    return integrate_kinked(g, 1.0, 0.0, cuts=_brace_cuts(f, end, x), **tol)


# identity_rhs's brace at (f, end, x, alpha): pref (P - lam Q) at lam, pref = |end - x|^(alpha+1) / (end x)^(alpha-1)
_Side = namedtuple("_Side", "pref p q")


def _rhs_qs(f: ScalarFunction, a: float, b: float, x: float, tol: dict) -> tuple[float | None, float | None]:
    """The alpha- and lam-free Q of the left and right brace; None where the brace is absent (x = a, x = b)."""
    return (
        _kernel_q(f, a, x, tol) if x > a else None,
        _kernel_q(f, b, x, tol) if x < b else None,
    )


def _rhs_parts(
    f: ScalarFunction, a: float, b: float, x: float, alpha: float, qs: tuple[float | None, float | None], tol: dict
) -> tuple[_Side | None, _Side | None]:
    """The lam-free sides of identity_rhs at one (f, a, b, x, alpha), given `_rhs_qs` at (f, a, b, x)."""
    q_left, q_right = qs
    left = right = None
    if q_left is not None:
        pref = (x - a) ** (alpha + 1.0) / (a * x) ** (alpha - 1.0)
        left = _Side(pref, _kernel_p(f, a, x, alpha, tol), q_left)
    if q_right is not None:
        pref = (b - x) ** (alpha + 1.0) / (b * x) ** (alpha - 1.0)
        right = _Side(pref, _kernel_p(f, b, x, alpha, tol), q_right)
    return left, right


def _rhs_at(sides: tuple[_Side | None, _Side | None], lam: float) -> float:
    """identity_rhs at one lam: the left brace minus the right one, each pref (P - lam Q)."""
    left, right = sides
    total = 0.0
    if left is not None:
        total += left.pref * (left.p - lam * left.q)
    if right is not None:
        total -= right.pref * (right.p - lam * right.q)
    return total


def identity_rhs(f: ScalarFunction, p: ParamPoint, **tol) -> float:
    """Kernel-integral form of the identity value; a brace with zero prefactor is skipped.

    Each brace is pref * int_0^1 (t^alpha - lam) A^{-2} f'(end*x/A) dt, and
    the kernel t^alpha - lam is linear in lam and has no kink, so the brace is
    pref (P - lam Q) with P = int t^alpha A^{-2} f'(...) and Q = int A^{-2} f'(...).
    Q depends on (f, end, x) only and P also on alpha, so a sweep computes Q
    once per x (`_rhs_qs`), P once per (x, alpha) (`_rhs_parts`) and each
    lam's value on top (`_rhs_at`); this function is that composition at one
    point.  Q stays a quadrature: its closed form (f(end) - f(x))/(end x (end - x))
    would make the lam part of the identity hold by construction, where the
    quadrature still checks f' against f.  The `abs_tol` and `rel_tol`
    keywords are passed on to `integrate`.
    """
    qs = _rhs_qs(f, p.a, p.b, p.x, tol)
    return _rhs_at(_rhs_parts(f, p.a, p.b, p.x, p.alpha, qs, tol), p.lam)


# One row of the theorem table: kq (the C2/C3 kernel-moment exponent), the c1 power and the as_stated
# denominator exponent e (x^e, b^e), each a function of the point's q; and whether the as_stated second
# sup is over {f'(x), f'(b)}, else {f'(x), f'(a)}.
_Family = namedtuple("_Family", "moment c1_power stated_den stated_far_is_b")


def _conjugate(q: float) -> float:
    return q / (q - 1.0)


_FAMILIES = {
    Theorem.T22: _Family(lambda q: q, lambda q: 1.0 - 1.0 / q, lambda q: 2.0 * q, False),
    Theorem.T23: _Family(lambda q: 1.0, lambda q: 0.0, lambda q: 2.0 * q, True),
    Theorem.T24: _Family(_conjugate, lambda q: 1.0 / q, lambda q: 2.0 * _conjugate(q), True),
}

# Each entry is a distinct brace moment, or its lam-free part, backing at least one
# bound record the caller already holds; the 9-function dense sweep needs 960
# moments on 240 parts.  The fixed size keeps a long-lived library process from
# growing without limit.
_BRACE_CACHE_SIZE = 2**16


@functools.lru_cache(maxsize=_BRACE_CACHE_SIZE)
def _brace_part(right: bool, alpha: float, kq: float, r: float) -> tuple[float, float]:
    """The lam-free part of c3 at (alpha, kq, r) for the right brace, else that of c2."""
    return (_c3_part if right else _c2_part)(alpha, kq, r)


@functools.lru_cache(maxsize=_BRACE_CACHE_SIZE)
def _brace_moment(right: bool, alpha: float, lam: float, kq: float, r: float) -> float:
    """c3(alpha, lam, kq, r)^(1/kq) for the right brace, else the same for c2: the lam step on the memoized part."""
    name, step = ("c3", _c3_at) if right else ("c2", _c2_at)
    return _moment(name, step, functools.partial(_brace_part, right), alpha, lam, kq, r) ** (1.0 / kq)


# One (q, theorem, variant) bound formula: kq is the C2/C3 kernel-moment exponent, the denominators are x^den_exp,
# b^den_exp (None: the corrected x*x, b*b), far_is_b: the second sup is over {f'(x), f'(b)}, else {f'(x), f'(a)}.
_Row = namedtuple("_Row", "q theorem variant kq c1_power den_exp far_is_b")


def _row(theorem: Theorem, variant: Variant, q: float) -> _Row:
    if theorem is Theorem.T24 and q <= 1.0:
        raise ValueError(f"Holder bound needs q > 1, got q={q}")
    fam = _FAMILIES[theorem]
    corrected = variant is Variant.SYMMETRIC_CORRECTED
    den_exp = None if corrected else fam.stated_den(q)
    far_is_b = corrected or fam.stated_far_is_b
    return _Row(q, theorem.value, variant.value, fam.moment(q), fam.c1_power(q), den_exp, far_is_b)


def _rows(qs: tuple[float, ...], variants: tuple[Variant, ...]) -> tuple[_Row, ...]:
    """Every row a sweep evaluates, in record order: q, then theorem (T24 only for q > 1), then variant."""
    return tuple(
        _row(theorem, variant, q)
        for q in qs
        for theorem in Theorem
        if theorem is not Theorem.T24 or q > 1.0
        for variant in variants
    )


def _bounds(
    f: ScalarFunction, a: float, b: float, x: float, lam: float, alpha: float, rows: tuple[_Row, ...], c1_value: float
) -> list[float]:
    """Each row's bound at one point, in row order; c1_value is c1(alpha, lam).

    A row's bound is c1_value^power times the sum, left brace first, of each
    brace's weight scale / (span * den) * sup times its kernel moment.  The
    left brace over [a, x] exists when x > a, the right one over [x, b] when
    x < b.  Each derivative is evaluated once per call.
    """
    dfx = abs(f.df(x))
    sup_a = max(dfx, abs(f.df(a)))
    # (right, scale, span, den_base, sup at the brace's own end, moment ratio r)
    braces = []
    if x > a:
        braces.append((False, (x - a) ** (alpha + 1.0), (a * x) ** (alpha - 1.0), x, sup_a, a / x))
    if x < b:
        braces.append((True, (b - x) ** (alpha + 1.0), (b * x) ** (alpha - 1.0), b, max(dfx, abs(f.df(b))), x / b))
    values = []
    for row in rows:
        total = 0.0
        for right, scale, span, base, sup_end, r in braces:
            den = base * base if row.den_exp is None else base**row.den_exp
            weight = scale / (span * den) * (sup_end if row.far_is_b else sup_a)
            total += weight * _brace_moment(right, alpha, lam, row.kq, r)
        values.append(c1_value**row.c1_power * total)
    return values


def bound(
    f: ScalarFunction,
    p: ParamPoint,
    theorem: Theorem,
    variant: Variant = Variant.SYMMETRIC_CORRECTED,
) -> float:
    """c1^power times the C2 and C3 braces at the family's kernel-moment exponent kq.

    (sup{A^q, B^q})^{1/q} = max(A, B) for A, B >= 0, so each sup factor is the
    plain max of derivative magnitudes regardless of q.  The corrected variant
    divides by x^2, b^2 and takes the second sup over {|f'(x)|, |f'(b)|}; the
    as_stated variant takes the family's printed exponent and far point.
    A sweep calls the same evaluator, `_bounds`, with every row at once.
    """
    row = _row(theorem, variant, p.q)
    return _bounds(f, p.a, p.b, p.x, p.lam, p.alpha, (row,), c1(p.alpha, p.lam))[0]


def evaluate_bound(
    f: ScalarFunction,
    p: ParamPoint,
    theorem: Theorem,
    variant: Variant = Variant.SYMMETRIC_CORRECTED,
) -> BoundReport:
    """|identity_lhs| against the requested bound; holds when slack >= -_SLACK_TOL (1e-9)."""
    lhs_abs = abs(identity_lhs(f, p))
    value = bound(f, p, theorem, variant)
    slack = value - lhs_abs
    return BoundReport(theorem, variant, lhs_abs, value, slack, slack >= -_SLACK_TOL)


def specialize(kind: str, base: ParamPoint) -> ParamPoint:
    """Named parameter slices: simpson (x=H, lam=1/3), midpoint (x=H, lam=0),
    trapezoid (x=H, lam=1), ostrowski (lam=0, x free), hadamard_weighted (x=H, lam kept)."""
    if kind not in SPECIAL_KINDS:
        raise ValueError(f"unknown specialization {kind!r}, expected one of {SPECIAL_KINDS}")
    x = base.x if kind == "ostrowski" else base.h_point
    lam = {"simpson": 1.0 / 3.0, "midpoint": 0.0, "trapezoid": 1.0, "ostrowski": 0.0}.get(kind, base.lam)
    return ParamPoint(base.a, base.b, x, lam, base.alpha, base.q)


def ostrowski_bound(
    M: float,
    p: ParamPoint,
    theorem: Theorem,
    variant: Variant = Variant.SYMMETRIC_CORRECTED,
) -> float:
    """Bound at lam = 0 for |f'| <= M: the general bound with f(u) = M*u, sup = M exactly."""
    if p.lam != 0.0:
        raise ValueError(f"ostrowski bound requires lam = 0, got {p.lam}")
    if not (math.isfinite(M) and M >= 0.0):
        raise ValueError(f"require M >= 0, got {M}")
    linear = ScalarFunction(
        "ostrowski_linear", IntervalDomain(p.a, p.b), lambda u: M * u, lambda u: M
    )
    return bound(linear, p, theorem, variant)
