"""Exact bits of the numeric layers, pinned as float.hex.

A change that reorders the arithmetic of 2F1, the kernel moments or the
weighted quadrature fails here, not only in a benchmark's report hash.  A
change that moves these bits on purpose updates the pins and says why.
"""
import math

import pytest

from hqfi import specialfn
from hqfi.kernels import c1, c2, c3
from hqfi.quad import QuadSpec, integrate_singular
from hqfi.specialfn import hyp2f1, hyp2f1_integral

# the public routes each hyp2f1 route must not reach
_BYPASSED = {
    "series": ("hyp2f1_integral",),
    "w_series": ("hyp2f1_series", "hyp2f1_integral"),
    "integral": ("hyp2f1_series",),
}


def _refuse(*args):
    raise AssertionError(f"wrong 2F1 route for {args}")


@pytest.mark.parametrize(
    "route, params, bits",
    [
        ("series", (2.0, 1.5, 3.0, 0.5), "0x1.f0ed99bed9b2ep+0"),
        ("series", (8.0, 3.5, 4.5, 0.9), "0x1.43e6d72415018p+22"),
        ("w_series", (2.0, 1.5, 3.0, 0.97), "0x1.0c747a0a699c6p+4"),  # d = -0.5
        ("w_series", (4.0, 1.0, 2.0, 0.95), "0x1.5ed5555555545p+11"),  # d = -3, an integer
        ("w_series", (2.0, 1.0, 3.0, 0.999), "0x1.7aeaf495021c0p+3"),  # d = 0, the log form
        ("integral", (-0.5, 1.0, 2.0, 0.95), "0x1.6347fab2d796cp-1"),  # a <= 0
        ("integral", (120.0, 20.0, 30.0, 0.95), "0x1.99f15cc918a19p+453"),  # a + b + c > 150
    ],
)
def test_hyp2f1_bits_on_each_route(route, params, bits, monkeypatch):
    for name in _BYPASSED[route]:
        monkeypatch.setattr(specialfn, name, _refuse)
    assert hyp2f1(*params).hex() == bits


def test_hyp2f1_integral_bits_with_both_endpoint_weights():
    # b < 1 and c - b < 1: both halves go through the singular substitution
    assert hyp2f1_integral(0.8, 0.4, 1.1, 0.6).hex() == "0x1.4a7bbf57d86e3p+0"


@pytest.mark.parametrize(
    "lam, bits",
    [(0.0, "0x1.999999999999ap-2"), (1.0 / 3.0, "0x1.092e8af8132a7p-2"), (1.0, "0x1.3333333333334p-1")],
)
def test_c1_bits(lam, bits):
    assert c1(1.5, lam).hex() == bits


@pytest.mark.parametrize(
    "lam, r, c2_bits, c3_bits",
    [
        (0.0, 0.6, "0x1.bd9faeae6ea50p+0", "0x1.73c8e98aebd65p-1"),
        (0.0, 0.05, "0x1.51696723b9733p+11", "0x1.33da282897e9ep+4"),
        (1.0 / 3.0, 0.6, "0x1.fd567afe32766p-1", "0x1.72d5ba644e76fp-1"),
        (1.0 / 3.0, 0.05, "0x1.b90e0187fd3fap+10", "0x1.ca91b5e4f61eep+9"),
        (1.0, 0.6, "0x1.48b27d90c715cp+0", "0x1.2636dbbcdfe7dp+1"),
        (1.0, 0.05, "0x1.ad7dc6337c240p+6", "0x1.5c6da10504248p+11"),
    ],
)
def test_c2_c3_bits(lam, r, c2_bits, c3_bits):
    # r = 0.05 puts z = 1 - r above 0.9, on the w-series
    assert (c2(1.5, lam, 2.0, r).hex(), c3(1.5, lam, 2.0, r).hex()) == (c2_bits, c3_bits)


def test_integrate_singular_bits_lower_weight():
    assert integrate_singular(math.exp, 0.3, "lower", QuadSpec(1.0, 3.0)).hex() == "0x1.550c1a7dfc67bp+4"


def test_integrate_singular_bits_upper_weight_with_a_cut():
    got = integrate_singular(lambda t: abs(t - 1.2), 0.7, "upper", QuadSpec(0.5, 2.0), cuts=(1.2,))
    assert got.hex() == "0x1.9bb2dfdb2eee7p-1"
