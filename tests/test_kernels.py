"""Closed-form kernel moments vs the independent quadrature oracle."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqfi.kernels import KernelArgs, c1, c2, c3, kernel_oracle
from hqfi.specialfn import HypParams, hyp2f1


def test_c1_closed_forms():
    # lam = 1/3, alpha = 1: the Simpson constant 5/18
    assert c1(1.0, 1.0 / 3.0) == pytest.approx(5.0 / 18.0, rel=1e-14)
    for alpha in (0.5, 1.0, 2.0, 3.7):
        assert c1(alpha, 0.0) == pytest.approx(1.0 / (alpha + 1.0), rel=1e-14)
        assert c1(alpha, 1.0) == pytest.approx(alpha / (alpha + 1.0), rel=1e-14)


@settings(deadline=None, max_examples=60)
@given(alpha=st.floats(0.2, 3.0), lam=st.floats(0.0, 1.0))
def test_c1_triangle_lower_bound_and_range(alpha, lam):
    v = c1(alpha, lam)
    # |int (t^alpha - lam)| <= int |t^alpha - lam| <= 1
    assert v >= abs(1.0 / (alpha + 1.0) - lam) - 1e-12
    assert v <= 1.0 + 1e-12


def test_c2_frozen_goldens():
    # alpha=1, lam=0: C2(1,0,1,r) = (2/(1-r)^2) [ (1-r)(... ) ] reduces to
    # elementary logs; the two grid values below were re-derived symbolically
    assert c2(1.0, 0.0, 1.0, 0.75) == pytest.approx(16.0 / 3.0 + 16.0 * math.log(0.75), rel=1e-12)
    assert c2(1.0, 0.0, 2.0, 0.5) == pytest.approx(10.0 / 3.0, rel=1e-12)
    assert c2(1.0, 0.0, 2.0, 0.75) == pytest.approx(88.0 / 81.0, rel=1e-12)
    # lam=0, q=1, r=1/2: 4(1 - ln 2)
    assert c2(1.0, 0.0, 1.0, 0.5) == pytest.approx(4.0 * (1.0 - math.log(2.0)), rel=1e-12)


def test_c3_frozen_goldens():
    assert c3(1.0, 0.0, 1.0, 2.0 / 3.0) == pytest.approx(-3.0 + 9.0 * math.log(1.5), rel=1e-12)
    assert c3(1.0, 0.0, 2.0, 2.0 / 3.0) == pytest.approx(7.0 / 8.0, rel=1e-12)


def test_kernel_oracle_golden():
    # int_0^1 t/(2-t)^2 dt = 1 - ln 2
    assert kernel_oracle(1.0, 0.0, 1.0, 1.0, 2.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-11)


def test_closed_forms_match_oracle_on_seeded_grid():
    # module-scale rehearsal of the acceptance grid (full 200 points there)
    rng = random.Random(42)
    for _ in range(60):
        alpha = rng.uniform(0.2, 3.0)
        lam = rng.uniform(0.0, 1.0)
        q = rng.choice((1.0, 1.5, 2.0, 3.0))
        r = rng.uniform(0.3, 1.0)
        o2 = kernel_oracle(alpha, lam, q, r, 1.0)
        o3 = kernel_oracle(alpha, lam, q, 1.0, r)
        assert c2(alpha, lam, q, r) == pytest.approx(o2, rel=1e-9)
        assert c3(alpha, lam, q, r) == pytest.approx(o3, rel=1e-9)
        assert c1(alpha, lam) == pytest.approx(
            kernel_oracle(alpha, lam, 1.0, 1.0, 1.0), rel=1e-10
        )  # u = v = 1 makes the weight identically 1: plain |t^alpha - lam| moment


def test_moments_collapse_at_r_equal_one():
    for alpha, lam, q in ((0.5, 0.2, 1.5), (1.0, 0.0, 2.0), (2.6, 0.9, 3.0), (1.7, 1.0, 1.0)):
        assert c2(alpha, lam, q, 1.0) == pytest.approx(c1(alpha, lam), rel=1e-11)
        assert c3(alpha, lam, q, 1.0) == pytest.approx(c1(alpha, lam), rel=1e-11)


def test_oracle_split_vs_unsplit():
    # kink handling is a convergence aid, not a value change
    split = kernel_oracle(1.3, 0.4, 2.0, 0.6, 1.0)
    unsplit = kernel_oracle(1.3, 0.4, 2.0, 0.6, 1.0, split_at_kink=False)
    assert split == pytest.approx(unsplit, rel=1e-9)


def c3_as_stated(alpha: float, lam: float, q: float, r: float) -> float:
    """Right-brace moment as the source text prints it: the correction term unrescaled.

    Diverges from kernel_oracle for 0 < lam < 1 (e.g. alpha=1, lam=1/2, q=1,
    r=1/2: 0.38629 here vs 0.52887 from the integral); agrees at lam in {0,1}.
    Kept here as a record of the erratum; kernels.c3 is the form the bounds use.
    """
    KernelArgs(alpha, lam, q, r)
    z1 = 1.0 - r
    main = hyp2f1(HypParams(2.0 * q, 1.0, alpha + 2.0, z1)) / (alpha + 1.0)
    if lam == 0.0:
        return main
    main -= lam * hyp2f1(HypParams(2.0 * q, 1.0, 2.0, z1))
    corr = 2.0 * lam ** (1.0 + 1.0 / alpha) * (
        hyp2f1(HypParams(2.0 * q, 1.0, 2.0, z1))
        - hyp2f1(HypParams(2.0 * q, 1.0, alpha + 2.0, z1)) / (alpha + 1.0)
    )
    return main + corr


def test_unrescaled_c3_variant_diverges_for_interior_lam():
    # the unrescaled correction term: wrong for 0 < lam < 1 ...
    unrescaled = c3_as_stated(1.0, 0.5, 1.0, 0.5)
    oracle = kernel_oracle(1.0, 0.5, 1.0, 1.0, 0.5)
    assert abs(unrescaled - oracle) > 0.1
    assert c3(1.0, 0.5, 1.0, 0.5) == pytest.approx(oracle, rel=1e-10)
    # ... and identical to the corrected form at the lam extremes
    for lam in (0.0, 1.0):
        assert c3_as_stated(1.2, lam, 2.0, 0.7) == pytest.approx(c3(1.2, lam, 2.0, 0.7), rel=1e-13)


@settings(deadline=None, max_examples=40)
@given(
    alpha=st.floats(0.3, 2.5),
    lam=st.floats(0.0, 1.0),
    q=st.floats(1.0, 3.0),
    r=st.floats(0.3, 1.0),
)
def test_moments_positive_and_ordered(alpha, lam, q, r):
    # both weight factors (tr+(1-t))^{-2q} and (t+(1-t)r)^{-2q} lie in
    # [1, r^{-2q}], sandwiching each moment between c1 and c1/r^{2q}
    base = c1(alpha, lam)
    for v in (c2(alpha, lam, q, r), c3(alpha, lam, q, r)):
        assert v >= base - 1e-9
        assert v <= base / r ** (2.0 * q) * (1.0 + 1e-10) + 1e-9


def test_domain_validation():
    with pytest.raises(ValueError):
        c1(0.0, 0.5)
    with pytest.raises(ValueError):
        c2(1.0, 1.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        c2(1.0, 0.5, 0.9, 0.5)
    with pytest.raises(ValueError):
        c3(1.0, 0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        c3(1.0, 0.5, 1.0, 1.1)
    with pytest.raises(ValueError):
        kernel_oracle(1.0, 0.5, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        KernelArgs(1.0, 0.5, 1.0, -0.2)
