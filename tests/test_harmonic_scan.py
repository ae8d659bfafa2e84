"""The one-pass convexity scan in s = 1/u against a brute-force triple scan and the definition."""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hqfi.harmonic as harmonic
from hqfi.harmonic import (
    IntervalDomain,
    ScalarFunction,
    abs_derivative_power,
    check_harmonically_convex,
    check_harmonically_quasiconvex,
    corpus,
)

FNS = {f.label: f for f in corpus()}
CHECKS = {"quasi": check_harmonically_quasiconvex, "convex": check_harmonically_convex}


def _brute_force_violated(f, d, n, seed, mode):
    """Every triple i < j < k of the checker's own samples, tested directly."""
    s, _, g = harmonic._samples(f, d, n, seed)
    m = len(s)
    for i in range(m):
        for k in range(i + 2, m):
            for j in range(i + 1, k):
                if mode == "convex":
                    lam = (s[j] - s[i]) / (s[k] - s[i])
                    rhs = lam * g[k] + (1.0 - lam) * g[i]
                else:
                    rhs = max(g[i], g[k])
                if g[j] > rhs + 1e-12 * max(1.0, abs(g[i]), abs(g[j]), abs(g[k])):
                    return True
    return False


def _replays(f, witness, mode):
    x, y, lam = witness
    mix = x * y / (lam * x + (1.0 - lam) * y)
    rhs = lam * f(y) + (1.0 - lam) * f(x) if mode == "convex" else max(f(x), f(y))
    return f(mix) > rhs


def _piecewise_linear_in_s(lo, ratio, values, scale):
    """f(u) = g(1/u) with g piecewise linear through `values` at equispaced knots of [1/hi, 1/lo]."""
    hi = lo * ratio
    s_lo, s_hi = 1.0 / hi, 1.0 / lo
    last = len(values) - 1

    def value(u):
        t = min(max((1.0 / u - s_lo) / (s_hi - s_lo), 0.0), 1.0) * last
        idx = min(int(t), last - 1)
        return scale * (values[idx] + (values[idx + 1] - values[idx]) * (t - idx))

    return ScalarFunction(f"pl{values}", IntervalDomain(lo, hi), value)


@pytest.mark.parametrize(
    "label, q, lo, hi",
    [("expx", 4.0, 1.0, 2.0), ("square", 8.0, 1.0, 2.0), ("piecewise_plateau", 8.0, 1.0, 4.0)],
)
def test_monotone_derivative_powers_pass_quasi_check(label, q, lo, hi):
    # |f'|^q is monotone on these intervals, so harmonically quasi-convex
    g = abs_derivative_power(FNS[label], q)
    verdict = check_harmonically_quasiconvex(g, IntervalDomain(lo, hi), n=15, seed=0)
    assert not verdict.violated, verdict.witness


def test_affine_in_reciprocal_is_harmonically_convex():
    # g(s) = 1e6*s + 1e6 is affine, so f is harmonically convex; the chord's
    # roundoff (about 1e-10 here) must stay under the convex-mode margin
    f = ScalarFunction("big_affine_in_s", IntervalDomain(1.0, 2.0), lambda u: 1e6 / u + 1e6)
    assert not check_harmonically_convex(f).violated
    assert not check_harmonically_convex(f, n=40, seed=3).violated


@pytest.mark.parametrize("mirror", [False, True])
def test_slow_drift_past_a_peak_is_refuted(mirror):
    # g climbs to 1, then drifts down by 9e-12 in steps far below the 1e-12
    # margin: only a comparison against the smallest g on the far side sees it
    values = [0.0] + [1.0 - 1e-12 * i for i in range(10)]
    f = _piecewise_linear_in_s(1.0, 2.0, values[::-1] if mirror else values, 1.0)
    verdict = check_harmonically_quasiconvex(f, n=15)
    assert verdict.violated
    assert _brute_force_violated(f, f.domain, 15, 0, "quasi")
    assert _replays(f, verdict.witness, "quasi")


@pytest.mark.parametrize("mode", sorted(CHECKS))
def test_clean_pass_covers_every_triple(mode):
    n = 12
    verdict = CHECKS[mode](FNS["square"], n=n)
    assert not verdict.violated
    assert verdict.samples_checked == math.comb((1 + harmonic._RANDOM_FACTOR) * n, 3)


@pytest.mark.parametrize("mode", sorted(CHECKS))
def test_corpus_witnesses_replay_against_definition(mode):
    refuted = 0
    for f in corpus():
        for g in [f] + [abs_derivative_power(f, q) for q in (1.0, 2.0, 4.0, 8.0)]:
            verdict = CHECKS[mode](g, n=25)
            if verdict.violated:
                refuted += 1
                assert _replays(g, verdict.witness, mode), (g.label, verdict.witness)
    assert refuted > 0


@settings(deadline=None, max_examples=40)
# a roundoff-level g on a flat knot at scale 1e6: an unscaled quasi margin reported it,
# and the witness did not replay
@example(lo=1.90625, ratio=2.0, values=[0, 0, 0, -2, 4, 0], scale=1e6, n=4, seed=0, mode="quasi")
@given(
    lo=st.floats(0.2, 2.0),
    ratio=st.floats(1.2, 20.0),
    values=st.lists(st.integers(-4, 4), min_size=2, max_size=6),
    scale=st.sampled_from([1e-3, 1.0, 1e6]),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(sorted(CHECKS)),
)
def test_one_pass_agrees_with_brute_force_triples(lo, ratio, values, scale, n, seed, mode):
    f = _piecewise_linear_in_s(lo, ratio, values, scale)
    verdict = CHECKS[mode](f, n=n, seed=seed)
    assert verdict.violated == _brute_force_violated(f, f.domain, n, seed, mode)
    if verdict.violated:
        assert _replays(f, verdict.witness, mode), verdict.witness
    else:
        assert verdict.samples_checked == math.comb((1 + harmonic._RANDOM_FACTOR) * n, 3)
