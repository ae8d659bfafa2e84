"""The weighted fractional identity and the three bound families built on it.

For f differentiable on [a, b] in (0, inf), x in [a, b], lam in [0, 1] and
alpha > 0, the identity value is

  I(f; a, b, x, lam, alpha) =
      (1-lam) [wa + wb] f(x) + lam [wa f(a) + wb f(b)]
      - Gamma(alpha+1) [ J_{1/x+}^alpha (f o inv)(1/a) + J_{1/x-}^alpha (f o inv)(1/b) ]

with wa = ((x-a)/(ax))^alpha, wb = ((b-x)/(bx))^alpha and inv(t) = 1/t.
`identity_lhs` assembles exactly that; `_lhs` computes its lam-free pieces
(the fractional term, which holds all of its quadrature, and wa + wb, f(x),
wa f(a) + wb f(b)) once and returns the lhs as a function of lam.
`identity_rhs` evaluates the equivalent kernel-integral form, and the pair
is the residual check the harness sweeps.  Its kernel t^alpha - lam is
linear in lam and has no kink, so each brace is pref (P - lam Q) with two
kink-free integrals: Q per (f, a, b, x) (`_rhs_qs`), and P per
(f, a, b, x, alpha) in `_rhs`, which returns the rhs as a function of lam.
Only the bounds' |t^alpha - lam| has a kink.  `_identity_values` stages
both sides at one x for the sweep (Q, each alpha's parts, then every
(lam, alpha) value) and names the case of a failed quadrature.

When |f'|^q is harmonically quasi-convex on [a, b], |I| is bounded by three
families (T22: power-mean, T23: its q=1 reduction shape, T24: Holder).  All
three have the shape c1^power * {C2 brace + C3 brace} at a kernel-moment
exponent kq, so one table (`_FAMILIES`) holds what tells them apart and one
evaluator assembles any of them:

  family  kq         c1 power  as_stated denominators  as_stated second sup
  T22     q          1 - 1/q   x^{2q}, b^{2q}          {|f'(x)|, |f'(a)|}
  T23     1          0         x^{2q}, b^{2q}          {|f'(x)|, |f'(b)|}
  T24     q/(q-1)    1/q       x^{2kq}, b^{2kq}        {|f'(x)|, |f'(b)|}

Each family carries two variants: `symmetric_corrected` is the proof-faithful
form (denominators x^2, b^2; second sup over {|f'(x)|, |f'(b)|}); `as_stated`
reproduces the source text verbatim, which is refutable and kept for
counterexample hunting.

Only the two sup factors of a bound depend on f, so the evaluator has two
steps.  The point step, `_point`, takes (a, b, x, lam, alpha), the rows and
c1(alpha, lam), and gives per (q, theorem, variant) row c1^power and, per
brace, its weight factor and its moment c2(...)^(1/kq) or c3(...)^(1/kq),
computing each moment once per (side, kq) of the point.  Every row has both
braces: an empty one (x = a on the left, x = b on the right) has weight
factor and moment 0.0 and adds an exact 0.  The function step,
`_bound_values`, takes the sups of one f (`_sups`, three derivative values,
which must be finite) and gives each row's bound.  `bound` runs both
steps with one row; the sweep builds each point once and applies it to every
function, with rows built once per run (`_rows`), so each record holds the
bits `bound` gives at its point.  No memo keeps a moment beyond its point:
`kernels` memoizes each 2F1-level value of c2 and c3 by the arguments it
depends on, so a sweep over lam computes each value once.

A bound holds when its slack, bound - |lhs|, is at least -tol * (1 + bound),
so the allowance for roundoff grows with the bound's scale.  That rule
lives in one function, `_verdicts`, which takes the bound values of a group
that shares one |lhs| and gives their slacks and verdicts: `evaluate_bound`
calls it with one value at _SLACK_TOL, and the harness once per group of a
sweep at the run's scaled tol_slack.
"""
from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Callable

from .fracint import rl_left, rl_right
from .harmonic import IntervalDomain, ScalarFunction, _Record
from .kernels import _check_args, c1, c2, c3, integrate_kinked
from .quad import QuadratureError
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
    """Evaluation point (a, b, x, lam, alpha, q), checked where each rule lives.

    `IntervalDomain` checks that a and b are finite with 0 < a < b, and its
    `contains` that x lies in [a, b]; `kernels._check_args` checks alpha > 0,
    lam in [0, 1] and q >= 1, each finite.
    """

    __slots__ = _fields = ("a", "b", "x", "lam", "alpha", "q")

    def __init__(self, a: float, b: float, x: float, lam: float, alpha: float, q: float = 1.0) -> None:
        if not IntervalDomain(a, b).contains(x):
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


def _lhs(f: ScalarFunction, a: float, b: float, x: float, alpha: float, tol: dict) -> Callable[[float], float]:
    """identity_lhs at (f, a, b, x, alpha) as a function of lam; the fractional integrals are all its quadrature.

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
    fractional = gamma(alpha + 1.0) * frac
    return lambda lam: (1.0 - lam) * (wa + wb) * fx + lam * ends - fractional


def identity_lhs(f: ScalarFunction, p: ParamPoint, **tol) -> float:
    """Boundary/fractional assembly of the identity value I(f; p).

    The fractional part does not depend on lam, so `_lhs` computes it once
    and returns the lhs as a function of lam, which a sweep over lam calls
    once per lam; this function calls it at p.lam.  The `abs_tol` and
    `rel_tol` keywords are passed on to `integrate`.
    """
    return _lhs(f, p.a, p.b, p.x, p.alpha, tol)(p.lam)


def _brace_cuts(f: ScalarFunction, end: float, x: float) -> tuple[float, ...]:
    """The points t = (end*x/u - x)/(end - x) where end*x/A, A = t*end + (1-t)*x, crosses a break u of f."""
    lo, hi = min(end, x), max(end, x)
    return tuple((end * x / u - x) / (end - x) for u in f.breaks if lo < u < hi)


def _kernel_p(f: ScalarFunction, end: float, x: float, alpha: float, tol: dict) -> float:
    """P = int_0^1 t^alpha A^{-2} f'(end*x/A) dt, A = t*end + (1-t)*x.

    No kink (lam = 0): cut only at the breaks, and taken in s = t^(1/k) with the power k that
    `integrate_kinked` picks from alpha: k = 1 at an integer alpha, k > 1 at any other.
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


def _rhs_qs(f: ScalarFunction, a: float, b: float, x: float, tol: dict) -> tuple[float | None, float | None]:
    """The alpha- and lam-free Q of the left and right brace; None where the brace is absent (x = a, x = b)."""
    return (
        _kernel_q(f, a, x, tol) if x > a else None,
        _kernel_q(f, b, x, tol) if x < b else None,
    )


def _rhs(
    f: ScalarFunction, a: float, b: float, x: float, alpha: float, qs: tuple[float | None, float | None], tol: dict
) -> Callable[[float], float]:
    """identity_rhs at (f, a, b, x, alpha) as a function of lam, given `_rhs_qs` at (f, a, b, x).

    Each brace is pref (P - lam Q), pref = |end - x|^(alpha+1) / (end x)^(alpha-1),
    and the left brace counts plus, the right one minus (an exact sign flip).
    """
    braces = [
        (sign * abs(end - x) ** (alpha + 1.0) / (end * x) ** (alpha - 1.0), _kernel_p(f, end, x, alpha, tol), q)
        for sign, end, q in ((1.0, a, qs[0]), (-1.0, b, qs[1]))
        if q is not None
    ]

    def at(lam: float) -> float:
        total = 0.0
        for pref, p, q in braces:
            total += pref * (p - lam * q)
        return total

    return at


def identity_rhs(f: ScalarFunction, p: ParamPoint, **tol) -> float:
    """Kernel-integral form of the identity value; a brace with zero prefactor is skipped.

    Each brace is pref * int_0^1 (t^alpha - lam) A^{-2} f'(end*x/A) dt, and
    the kernel t^alpha - lam is linear in lam and has no kink, so the brace is
    pref (P - lam Q) with P = int t^alpha A^{-2} f'(...) and Q = int A^{-2} f'(...).
    Q depends on (f, end, x) only and P also on alpha, so `_rhs_qs` computes
    Q once per x and `_rhs` P once per (x, alpha), returning the rhs as a
    function of lam; this function calls it at p.lam.  Q stays a quadrature:
    its closed form (f(end) - f(x))/(end x (end - x)) would make the lam part
    of the identity hold by construction, where the quadrature still checks
    f' against f.  The `abs_tol` and `rel_tol` keywords are passed on to
    `integrate`.
    """
    return _rhs(f, p.a, p.b, p.x, p.alpha, _rhs_qs(f, p.a, p.b, p.x, tol), tol)(p.lam)


def _identity_values(
    f: ScalarFunction, a: float, b: float, x: float, alphas: tuple[float, ...], lambdas: tuple[float, ...], tol: dict
) -> list[tuple[float, float, float, float]]:
    """(lam, alpha, lhs, rhs) for every (lam, alpha) at one (f, a, b, x), lam-major.

    Q runs once, then per alpha in order the lhs's fractional part and P; each lam is a few products on top.
    A `QuadratureError` or an `ArithmeticError` (Gamma(alpha) past the double range, say) is raised
    again as its own type, naming its case, with alpha only where the work depends on it.
    """
    where = ""
    try:
        qs = _rhs_qs(f, a, b, x, tol)
        sides = []
        for alpha in alphas:
            where = f", alpha={alpha}"
            sides.append((alpha, _lhs(f, a, b, x, alpha, tol), _rhs(f, a, b, x, alpha, qs, tol)))
    except (QuadratureError, ArithmeticError) as exc:
        raise type(exc)(f"{exc} [case: function={f.label}, a={a}, b={b}, x={x}{where}]") from exc
    return [(lam, alpha, lhs(lam), rhs(lam)) for lam in lambdas for alpha, lhs, rhs in sides]


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


def _point(a: float, b: float, x: float, lam: float, alpha: float, rows: tuple[_Row, ...], c1_value: float) -> list:
    """The point step: everything of each row's bound at (a, b, x, lam, alpha) that does not depend on f.

    Per row: (c1^power, g_l, m_l, g_r, m_r, far_is_b), with each brace's weight factor
    g = scale / (span * den) and moment m, the left brace (over [a, x]) first.  c1_value is
    c1(alpha, lam).  A brace's moment is c2(alpha, lam, kq, r)^(1/kq) on the left, r = a/x,
    and c3(alpha, lam, kq, r)^(1/kq) on the right, r = x/b; each is computed once per (side, kq)
    of the point, however many rows share it.  A brace whose scale is 0, as at x = a or x = b,
    gives (0.0, 0.0) and computes no moment.
    """
    # (moment, scale, span, den_base, r) per brace, left first
    braces = (
        (c2, (x - a) ** (alpha + 1.0), (a * x) ** (alpha - 1.0), x, a / x),
        (c3, (b - x) ** (alpha + 1.0), (b * x) ** (alpha - 1.0), b, x / b),
    )
    moments = {}
    terms = []
    for row in rows:
        term = [c1_value**row.c1_power]
        for moment, scale, span, base, r in braces:
            if scale == 0.0:
                term += (0.0, 0.0)
                continue
            den = base * base if row.den_exp is None else base**row.den_exp
            key = moment, row.kq
            if key not in moments:
                moments[key] = moment(alpha, lam, row.kq, r) ** (1.0 / row.kq)
            term += (scale / (span * den), moments[key])
        term.append(row.far_is_b)
        terms.append(tuple(term))
    return terms


def _sups(f: ScalarFunction, a: float, b: float, x: float) -> tuple[float, float]:
    """The sup factors at x: max(|f'(x)|, |f'(a)|) and max(|f'(x)|, |f'(b)|).

    A derivative value that is not finite raises ValueError: an infinite sup
    makes a bound vacuous, and times the 0.0 weight of an empty brace it
    gives NaN.
    """
    dfx, dfa, dfb = abs(f.df(x)), abs(f.df(a)), abs(f.df(b))
    if not (math.isfinite(dfx) and math.isfinite(dfa) and math.isfinite(dfb)):
        raise ValueError(
            f"bound of {f.label} at a={a}, b={b}, x={x} needs finite derivatives, "
            f"got |f'(x)|={dfx}, |f'(a)|={dfa}, |f'(b)|={dfb}"
        )
    return max(dfx, dfa), max(dfx, dfb)


def _bound_values(terms: list, sup_a: float, sup_b: float) -> list[float]:
    """The function step: each row's bound at the point, in row order, from the sups of one f.

    A row's bound is c1^power times the sum, left brace first, of each brace's
    weight factor times its sup times its moment.  The left brace takes sup_a;
    the right one sup_b if the row's far point is b, else sup_a.  The float
    order is that of `total = 0.0; total += (g * sup) * m` per brace, then
    `c1^power * total`, which this drops the 0.0 from: 0.0 + t is t for every
    t but -0.0, and a term is a positive weight factor times a magnitude times
    a positive moment.  An empty brace (x = a on the left, x = b on the right)
    has weight factor and moment 0.0, and the sups are finite (`_sups`), so its
    term is an exact +0.0: 0.0 + t == t and t + 0.0 == t for every t >= +0.0,
    and the bound is the other brace's term times c1^power.
    """
    return [
        p * (g_l * sup_a * m_l + g_r * (sup_b if far_is_b else sup_a) * m_r)
        for p, g_l, m_l, g_r, m_r, far_is_b in terms
    ]


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
    A sweep runs the same two steps, `_point` and `_bound_values`, with every
    row at once.
    """
    row = _row(theorem, variant, p.q)
    c1_value = c1(p.alpha, p.lam)
    sup_a, sup_b = _sups(f, p.a, p.b, p.x)
    return _bound_values(_point(p.a, p.b, p.x, p.lam, p.alpha, (row,), c1_value), sup_a, sup_b)[0]


def _verdicts(values: list[float], lhs_abs: float, tol: float) -> tuple[list[float], list[bool]]:
    """The slacks value - lhs_abs and the verdicts slack >= -tol * (1 + value) of bound values sharing one |lhs|.

    The allowance grows with the bound, so the roundoff of a bound attained
    at scale (f(u) = 1e6 u at an endpoint) is no violation.  Both lists are
    in the order of `values`.
    """
    slacks = [value - lhs_abs for value in values]
    return slacks, [slack >= -tol * (1.0 + value) for slack, value in zip(slacks, values)]


def evaluate_bound(
    f: ScalarFunction,
    p: ParamPoint,
    theorem: Theorem,
    variant: Variant = Variant.SYMMETRIC_CORRECTED,
) -> BoundReport:
    """|identity_lhs| against the requested bound, decided by `_verdicts` at _SLACK_TOL (1e-9)."""
    lhs_abs = abs(identity_lhs(f, p))
    value = bound(f, p, theorem, variant)
    (slack,), (holds,) = _verdicts([value], lhs_abs, _SLACK_TOL)
    return BoundReport(theorem, variant, lhs_abs, value, slack, holds)


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
