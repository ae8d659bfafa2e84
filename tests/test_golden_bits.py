"""Exact bits of the numeric layers, pinned as float.hex.

A change that reorders the arithmetic of 2F1, the kernel moments, any
quadrature layer (integrate, integrate_kinked, kernel_oracle, the
fractional integrals and the two sides of the identity) or the bound
evaluator fails here, not only in a benchmark's report hash.  The last pins
hold the sha256 of whole reports, so a change to either writer fails here
too.  A change that moves these bits on purpose updates the pins and says why.
"""
import hashlib
import math
import re

import pytest

from hqfi import quad, specialfn
from hqfi.bounds import ParamPoint, Theorem, Variant, bound, identity_lhs, identity_rhs
from hqfi.fracint import rl_left, rl_right
from hqfi.harmonic import corpus
from hqfi.harness import SweepConfig, run_verify
from hqfi.kernels import c1, c2, c3, integrate_kinked, kernel_oracle
from hqfi.quad import integrate, integrate_singular
from hqfi.specialfn import hyp2f1, hyp2f1_integral

# the route bodies each hyp2f1 route must not reach
_BYPASSED = {
    "series": ("_hyp2f1_integral",),
    "w_series": ("_hyp2f1_series", "_hyp2f1_integral"),
    "integral": ("_hyp2f1_series",),
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
        (1.0 / 3.0, 0.6, "0x1.fd567afe32762p-1", "0x1.72d5ba644e76fp-1"),
        (1.0 / 3.0, 0.05, "0x1.b90e0187fd3fap+10", "0x1.ca91b5e4f6209p+9"),
        (1.0, 0.6, "0x1.48b27d90c715dp+0", "0x1.2636dbbcdfe7bp+1"),
        (1.0, 0.05, "0x1.ad7dc6337c22dp+6", "0x1.5c6da10504243p+11"),
    ],
)
def test_c2_c3_bits(lam, r, c2_bits, c3_bits):
    # r = 0.05 puts z = 1 - r above 0.9, on the w-series; every pin is within 3.3e-15 of a 30-digit referee
    assert (c2(1.5, lam, 2.0, r).hex(), c3(1.5, lam, 2.0, r).hex()) == (c2_bits, c3_bits)


@pytest.mark.parametrize(
    "alpha, bits", [(0.05, "0x1.e79e79e79e79ep-1"), (1.0, "0x1.0000000000000p-1"), (10.0, "0x1.745d1745d1746p-4")]
)
def test_c1_bits_at_lam_zero(alpha, bits):
    # the general form at lam = 0, (2 alpha 0.0 + 1)/(alpha + 1) - 0.0, is 1/(alpha + 1) bit for bit
    assert c1(alpha, 0.0).hex() == bits
    assert c1(alpha, 0.0) == 1.0 / (alpha + 1.0)


def test_integrate_singular_bits_lower_weight():
    assert integrate_singular(math.exp, 0.3, "lower", 1.0, 3.0).hex() == "0x1.550c1a7dfc67bp+4"


def test_integrate_singular_bits_where_the_scaled_absolute_tolerance_decides():
    # |I| is near 0.02, so abs_tol decides, and the substituted integral in u runs to abs_tol * g
    got = integrate_singular(lambda t: 0.01 * math.cos(3.0 * t), 0.3, "lower", 1.0, 3.0)
    assert got.hex() == "-0x1.3cd1c74296e9cp-6"


def test_integrate_singular_bits_upper_weight_with_a_cut():
    got = integrate_singular(lambda t: abs(t - 1.2), 0.7, "upper", 0.5, 2.0, cuts=(1.2,))
    assert got.hex() == "0x1.9bb2dfdb2eee7p-1"


def test_integrate_singular_bits_at_a_unit_exponent():
    # g = 1 samples the weight (t - lo)^0.0 == 1.0, so the result is the plain rule's
    got = integrate_singular(math.exp, 1.0, "lower", 1.0, 3.0)
    assert got.hex() == "0x1.15e046e0d2619p+4"
    assert got == integrate(math.exp, 1.0, 3.0)
    got = integrate_singular(lambda t: abs(t - 1.2), 1.0, "upper", 0.5, 2.0, cuts=(1.2,))
    assert got.hex() == "0x1.2147ae147ae15p-1"


def test_integrate_bits_through_the_heap_loop(monkeypatch):
    # the kink at 1/3 is no panel edge, so the first panel misses the tolerance and bisection runs
    panels = [0]
    inner = quad.gk15

    def counted(*args):
        panels[0] += 1
        return inner(*args)

    monkeypatch.setattr(quad, "gk15", counted)
    assert integrate(lambda t: abs(t - 1.0 / 3.0), 0.0, 1.0).hex() == "0x1.1c71c71c71f38p-2"
    assert panels[0] > 1


def test_integrate_kinked_bits_with_substitution_and_a_cut():
    # alpha = 0.4 integrates in s = t^(1/5): 3 * 0.4 is no integer, so k rises from ceil(1/0.4) = 3
    # to the least k with k * 1.4 - 1 >= 5.  The kink 0.5^(1/0.4) and the cut 0.7 both move into s.
    # 1.6e-16 relative from a 30-digit referee (1.2e-14 at k = 3)
    got = integrate_kinked(lambda t: abs(t**0.4 - 0.5) + abs(t - 0.7), 0.4, 0.5, cuts=(0.7,))
    assert got.hex() == "0x1.1c0ddf73ad343p-1"


def test_kernel_oracle_bits_at_an_interior_kink():
    # alpha = 1.5 integrates in s = t^(1/3), since 1.5 is no integer; 6.5e-16 relative from a
    # 30-digit referee (1.5e-14 in t)
    assert kernel_oracle(1.5, 1.0 / 3.0, 2.0, 0.6, 1.0).hex() == "0x1.fd567afe32755p-1"


def test_kernel_oracle_bits_on_a_graded_piece():
    # u = 0.01 < v = 1 at q = 8: the one piece, s in [0, 1] with t = s^10, is taken in y toward the
    # heavy end s = 1.  2.0e-14 relative from a 30-digit referee (1.1e-13 with the piece in s)
    assert kernel_oracle(0.1, 1.0, 8.0, 0.01, 1.0).hex() == "0x1.01644d816f06bp+82"


def test_rl_bits_with_a_cut():
    f = lambda t: abs(t - 1.2)
    assert rl_left(f, 0.5, 0.7, 2.0, cuts=(1.2,)).hex() == "0x1.3d2a705de8a6ep-1"
    assert rl_right(f, 2.0, 0.7, 0.5, cuts=(1.2,)).hex() == "0x1.2be184015b13bp-1"


@pytest.mark.parametrize(
    "x, lam, alpha, lhs_bits, rhs_bits",
    [
        # the break u = 1 of piecewise_plateau lies in the right brace at x = 0.8, in the left one at x = 1.5
        (0.8, 1.0 / 3.0, 0.5, "0x1.b871591ad2260p-3", "0x1.b871591ad225ep-3"),
        (1.5, 0.5, 2.0, "-0x1.798a94ffd53a4p-2", "-0x1.798a94ffd53a7p-2"),
    ],
)
def test_identity_bits_across_a_break(x, lam, alpha, lhs_bits, rhs_bits):
    f = {g.label: g for g in corpus()}["piecewise_plateau"]
    p = ParamPoint(0.5, 2.0, x, lam, alpha)
    assert (identity_lhs(f, p).hex(), identity_rhs(f, p).hex()) == (lhs_bits, rhs_bits)


@pytest.mark.parametrize(
    "x, q, bits",
    [
        # x = a: only the right brace exists
        (1.0, 1.0, ("0x1.39e615d9b2131p-2", "0x1.39e615d9b2131p-1", "0x1.39e615d9b2131p-1", "0x1.39e615d9b2131p-1")),
        (
            1.0,
            1.5,
            (
                "0x1.47b22311666b4p-3", "0x1.47b22311666b4p-1", "0x1.39e615d9b2131p-2",
                "0x1.39e615d9b2131p-1", "0x1.7b2f2884cafbbp-5", "0x1.7b2f2884cafbbp-1",
            ),
        ),
        (
            1.0,
            4.0,
            (
                "0x1.a0d0a371a8f09p-8", "0x1.a0d0a371a8f09p-1", "0x1.39e615d9b2131p-7",
                "0x1.39e615d9b2131p-1", "0x1.96cbecd28a50fp-2", "0x1.42dfe9cf34c63p-1",
            ),
        ),
        # an interior x: both braces
        (1.4, 1.0, ("0x1.48304af028444p-2", "0x1.8db9039463fb2p-2", "0x1.8db9039463fb2p-2", "0x1.8db9039463fb2p-2")),
        (
            1.4,
            1.5,
            (
                "0x1.92a168c29afd8p-3", "0x1.913d34b238f90p-2", "0x1.d4d7467ba73d0p-3",
                "0x1.8db9039463fb2p-2", "0x1.dbcd4ad50745cp-5", "0x1.9c6a7417dc198p-2",
            ),
        ),
        (
            1.4,
            4.0,
            (
                "0x1.997b8d7cb759bp-6", "0x1.a44cefd936c02p-2", "0x1.9a91284aa06e6p-6",
                "0x1.8db9039463fb2p-2", "0x1.1836f11c38be5p-2", "0x1.900e126430dc0p-2",
            ),
        ),
        # x = b: only the left brace exists
        (2.0, 1.0, ("0x1.e7b5066822dc9p-1", "0x1.e7b5066822dc9p-1", "0x1.e7b5066822dc9p-1", "0x1.e7b5066822dc9p-1")),
        (
            2.0,
            1.5,
            (
                "0x1.f57953656f2d7p-2", "0x1.f57953656f2d7p-1", "0x1.e7b5066822dc9p-2",
                "0x1.e7b5066822dc9p-1", "0x1.0c8978f7ff243p-4", "0x1.0c8978f7ff243p+0",
            ),
        ),
        (
            2.0,
            4.0,
            (
                "0x1.1640747e5e193p-6", "0x1.1640747e5e193p+0", "0x1.e7b5066822dc9p-7",
                "0x1.e7b5066822dc9p-1", "0x1.3915cb85e41fbp-1", "0x1.f0fdde7153621p-1",
            ),
        ),
    ],
)
def test_bound_bits_of_every_theorem_and_variant(x, q, bits):
    # f(u) = u^2 has f'(a) != f'(b), so each row's far point shows; T24 needs q > 1.
    # Pins in row order: theorem, then as_stated before symmetric_corrected.
    f = {g.label: g for g in corpus()}["square"]
    p = ParamPoint(1.0, 2.0, x, 1.0 / 3.0, 0.7, q)
    got = tuple(
        bound(f, p, theorem, variant).hex()
        for theorem in Theorem
        if theorem is not Theorem.T24 or q > 1.0
        for variant in (Variant.AS_STATED, Variant.SYMMETRIC_CORRECTED)
    )
    assert got == bits


@pytest.mark.parametrize(
    "grid, json_sha, csv_sha",
    [
        ({}, "e93902a93434a19754759676988fcf5274af629e50b0d2c8b39380dd7a6a7a09",
         "19012f7ae273c6720a6986c0869ed72b85ad1e0c506162087ce86a6aa9c18f02"),
        ({"x_mode": "grid", "x_count": 3}, "8336d1cc8e998cb4710b7972ef78dfcee2229f80a5b861fed7421d0b00c3e336",
         "c0ef399d9fac993a6d0b74d12fbc98c2562e9787f9c6806fe4799e594f5b918c"),
    ],
)
def test_report_bytes(grid, json_sha, csv_sha):
    # the JSON report (455,802 and 1,308,332 bytes) with its one timestamp emptied, and the CSV (183,536 and 489,966)
    report = run_verify(SweepConfig(variant="both", **grid))
    text, stamps = re.subn(r'"generated_at": "[^"]*"', '"generated_at": ""', report.to_json())
    assert stamps == 1
    assert hashlib.sha256(text.encode()).hexdigest() == json_sha
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == csv_sha
