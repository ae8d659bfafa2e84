"""Harmonic convexity checkers and the reference function corpus.

A function f on a positive interval is harmonically convex when
f(xy/(lx + (1-l)y)) <= l*f(y) + (1-l)*f(x) for all x, y in the interval and
l in [0,1]; replacing the right side with max(f(x), f(y)) gives the weaker
quasi-convex property.  With g(s) = f(1/s) the harmonic mix is the ordinary
mix of 1/x and 1/y, so f is harmonically (quasi-)convex on [lo, hi] exactly
when g is (quasi-)convex on [1/hi, 1/lo] (Iscan 2014).  The checkers sample g
once and cover every triple of samples in one pass.  They refute by sampling:
a returned violation is a certificate, a clean pass is only sample evidence.
"""
from __future__ import annotations

import functools
import math
import random
from collections import namedtuple
from collections.abc import Callable

__all__ = [
    "NO_VIOLATION",
    "VIOLATED",
    "IntervalDomain",
    "ScalarFunction",
    "ConvexityVerdict",
    "check_harmonically_convex",
    "check_harmonically_quasiconvex",
    "abs_derivative_power",
    "corpus",
    "validate_corpus",
]

NO_VIOLATION = "no_violation_found"
VIOLATED = "violated"

_VIOLATION_MARGIN = 1e-12
_CBRT_EPS = 6.0554544523933395e-06  # cube root of 2^-52, central-difference step scale
_RANDOM_FACTOR = 10  # seeded uniform samples per grid point: 10*n


class _Record:
    """An immutable record, compared, hashed, shown and pickled by `_fields`: its constructor's arguments.

    A subclass's `__init__` validates, then stores its `__slots__` once with
    `_init`; setting or deleting an attribute afterwards raises AttributeError.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # for pickle and copy: rebuilt, and validated again, by __init__
        return type(self), self._values()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"


class IntervalDomain(_Record):
    """Closed positive interval [lo, hi] with 0 < lo < hi."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("domain endpoints must be finite")
        if not 0.0 < lo < hi:
            raise ValueError(f"require 0 < lo < hi, got [{lo}, {hi}]")
        self._init(lo, hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: IntervalDomain) -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


class ScalarFunction(_Record):
    """A labelled real function on a positive interval.

    `df` is f', set once: `derivative` itself when given, else a central
    difference with step h = cbrt(eps) * max(1, |x|).  `quasi` records
    whether |f'| is harmonically quasi-convex on `domain` (None: no claim).
    For q >= 1, |f'|^q has the sublevel sets of |f'|, so the one flag covers
    every q; `validate_corpus` checks it against the checker.  `breaks`
    lists, in increasing order, the points of `domain` where f or f' is not
    smooth; the identity's integrals are cut there.  Two ScalarFunctions are
    equal only when they are the same object.
    """

    __slots__ = ("label", "domain", "value", "derivative", "quasi", "breaks", "df")
    _fields = __slots__[:-1]  # df is derived from the others
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        label: str,
        domain: IntervalDomain,
        value: Callable[[float], float],
        derivative: Callable[[float], float] | None = None,
        quasi: bool | None = None,
        breaks: tuple[float, ...] = (),
    ) -> None:
        breaks = tuple(float(u) for u in breaks)
        if not all(math.isfinite(u) and domain.contains(u) for u in breaks):
            raise ValueError(f"{label}: breaks {breaks} must be finite and inside [{domain.lo}, {domain.hi}]")
        if any(u >= v for u, v in zip(breaks, breaks[1:])):
            raise ValueError(f"{label}: breaks {breaks} must be strictly increasing")
        df = functools.partial(_central_difference, value) if derivative is None else derivative
        self._init(label, domain, value, derivative, quasi, breaks, df)

    def __call__(self, x: float) -> float:
        return self.value(x)


def _central_difference(value: Callable[[float], float], x: float) -> float:
    h = _CBRT_EPS * max(1.0, abs(x))
    return (value(x + h) - value(x - h)) / (2.0 * h)


class ConvexityVerdict(namedtuple("ConvexityVerdict", "status witness samples_checked")):
    """Checker outcome: status, first witness triple (x, y, l) if violated, sample count."""

    __slots__ = ()

    @property
    def violated(self) -> bool:
        return self.status == VIOLATED


def _samples(f: ScalarFunction, d: IntervalDomain, n: int, seed: int) -> tuple[list, list, list]:
    """Sorted s in [1/hi, 1/lo] (n equispaced, _RANDOM_FACTOR*n seeded uniform), u = 1/s in d, g = f(u)."""
    if n < 2:
        raise ValueError(f"checker grid needs n >= 2, got {n}")
    if not f.domain.encloses(d):
        raise ValueError(f"check domain [{d.lo}, {d.hi}] escapes {f.label} domain")
    s_lo, s_hi = 1.0 / d.hi, 1.0 / d.lo
    step = (s_hi - s_lo) / (n - 1)
    rng = random.Random(seed)
    s = sorted([s_lo + i * step for i in range(n)] + [rng.uniform(s_lo, s_hi) for _ in range(_RANDOM_FACTOR * n)])
    u = [min(d.hi, max(d.lo, 1.0 / v)) for v in s]
    return s, u, [f(v) for v in u]


def _scan(f: ScalarFunction, d: IntervalDomain, n: int, seed: int, convex: bool) -> ConvexityVerdict:
    # quasi: g_j against the smallest g on each side; convex: g_j against its
    # neighbours' chord (non-decreasing consecutive slopes bound every wider chord);
    # in both, the margin scales with the three samples, as their roundoff does
    s, u, g = _samples(f, d, n, seed)
    m = len(s)
    # right_min[j]: index of the smallest g among samples j+1 .. m-1
    right_min = [m - 1] * m
    for j in range(m - 3, -1, -1):
        k = right_min[j + 1]
        right_min[j] = j + 1 if g[j + 1] <= g[k] else k
    left_min = 0
    checked = 0
    for j in range(1, m - 1):
        checked += j * (m - 1 - j)  # the triples i < j < k with middle sample j
        if convex:
            i, k = j - 1, j + 1
            lam = (s[j] - s[i]) / (s[k] - s[i])
            rhs = lam * g[k] + (1.0 - lam) * g[i]
        else:
            i, k = left_min, right_min[j]
            rhs = max(g[i], g[k])
            if g[j] < g[left_min]:
                left_min = j
        if g[j] > rhs + _VIOLATION_MARGIN * max(1.0, abs(g[i]), abs(g[j]), abs(g[k])):
            lam = (s[j] - s[i]) / (s[k] - s[i])
            return ConvexityVerdict(VIOLATED, (u[i], u[k], lam), checked)
    return ConvexityVerdict(NO_VIOLATION, None, checked)


def check_harmonically_convex(
    f: ScalarFunction, d: IntervalDomain | None = None, n: int = 20, seed: int = 0
) -> ConvexityVerdict:
    """Refutation of f(mix) <= l*f(y) + (1-l)*f(x): every sampled g(s) against its neighbours' chord."""
    return _scan(f, d or f.domain, n, seed, convex=True)


def check_harmonically_quasiconvex(
    f: ScalarFunction, d: IntervalDomain | None = None, n: int = 20, seed: int = 0
) -> ConvexityVerdict:
    """Refutation of f(mix) <= max(f(x), f(y)): every sampled g(s) against the smallest g on each side."""
    return _scan(f, d or f.domain, n, seed, convex=False)


def abs_derivative_power(f: ScalarFunction, q: float) -> ScalarFunction:
    """|f'|^q as a ScalarFunction on the same domain (the bound hypotheses act on this)."""
    if not (math.isfinite(q) and q >= 1.0):
        raise ValueError(f"require q >= 1, got {q}")
    return ScalarFunction(
        label=f"|{f.label}'|^{q:g}",
        domain=f.domain,
        value=lambda u: abs(f.df(u)) ** q,
    )


def _piecewise_value(u: float) -> float:
    return 1.0 if u <= 1.0 else (u - 2.0) ** 2


def _piecewise_deriv(u: float) -> float:
    # right-branch value at the kink: the correct one-sided sup on [1, b]
    return 0.0 if u < 1.0 else 2.0 * (u - 2.0)


def corpus() -> list[ScalarFunction]:
    """Reference functions, each flagged with whether |f'| is harmonically quasi-convex."""
    unit = IntervalDomain(1.0, 2.0)
    return [
        ScalarFunction("const_zero", unit, lambda u: 0.0, lambda u: 0.0, True),
        ScalarFunction("const_3_2", unit, lambda u: 1.5, lambda u: 0.0, True),
        ScalarFunction("identity", unit, lambda u: u, lambda u: 1.0, True),
        ScalarFunction("square", unit, lambda u: u * u, lambda u: 2.0 * u, True),
        ScalarFunction("reciprocal", unit, lambda u: 1.0 / u, lambda u: -1.0 / (u * u), True),
        ScalarFunction("xlnx", unit, lambda u: u * math.log(u), lambda u: math.log(u) + 1.0, True),
        ScalarFunction("expx", unit, lambda u: math.exp(u), math.exp, True),
        ScalarFunction("sqrtx", unit, math.sqrt, lambda u: 0.5 / math.sqrt(u), True),
        # quasi-convex but not harmonically convex; |f'| has disconnected
        # sublevel sets on the full domain, hence quasi=False
        ScalarFunction(
            "piecewise_plateau",
            IntervalDomain(0.1, 4.0),
            _piecewise_value,
            _piecewise_deriv,
            False,
            breaks=(1.0,),
        ),
    ]


_CHECK_N, _CHECK_SEED = 25, 0  # the checker's sample count and seed when validate_corpus re-proves a flag


def validate_corpus() -> list[ScalarFunction]:
    """Corpus with every `quasi` flag re-proven by the checker on |f'|; raises on mismatch."""
    fns = corpus()
    for f in fns:
        if f.quasi is None:
            continue
        verdict = check_harmonically_quasiconvex(abs_derivative_power(f, 1.0), f.domain, n=_CHECK_N, seed=_CHECK_SEED)
        if verdict.violated == f.quasi:
            raise RuntimeError(
                f"corpus flag mismatch: {f.label} quasi={f.quasi}, "
                f"checker says {verdict.status} (witness {verdict.witness})"
            )
    return fns
