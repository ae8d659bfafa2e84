"""Each side of the identity against its closed form on the power functions of the corpus.

The lhs - rhs residual the sweep checks cannot say which side is wrong, nor
see a fault both sides share.  `exact_sides` gives each side's true value
with no quadrature, so each is held on its own, to k (1 + sum of |terms|):
the size of what cancels in it, taken from the closed form.
"""
import pytest
from exact_sides import POWERS, lhs_terms, rhs_terms, side

from hqfi.bounds import ParamPoint, _identity_values, identity_lhs, identity_rhs
from hqfi.harmonic import IntervalDomain, ScalarFunction, corpus
from hqfi.harness import SweepConfig, _x_points

FNS = {f.label: f for f in corpus()}

# the default grid, the sweep_dense benchmark grid, and the sweep_wide one with every power function on it.
# k is at least 10x the worst error measured, in units of 1 + sum |terms|: lhs 1.7e-16 and rhs 1.3e-16 (default),
# 4.5e-16 and 2.8e-16 (sweep_dense), 3.7e-15 and 1.7e-14 (sweep_wide, both at square and alpha = 10)
GRIDS = {
    "default": (SweepConfig(), 1e-14, 1e-14),
    "sweep_dense": (SweepConfig(x_mode="grid", x_count=5, alphas=(0.1, 0.5, 1.0, 2.0, 5.0)), 1e-14, 1e-14),
    "sweep_wide": (
        SweepConfig(
            intervals=((0.1, 4.0), (0.5, 4.0), (1.0, 4.0)), x_mode="grid", x_count=9, alphas=(0.05, 0.25, 1.0, 4.0, 10.0)
        ),
        5e-14,
        2e-13,
    ),
}


def _widened(label: str) -> ScalarFunction:
    """The corpus function on (0.1, 4): each power is defined on all of (0, inf), the corpus declares [1, 2]."""
    f = FNS[label]
    return ScalarFunction(label, IntervalDomain(0.1, 4.0), f.value, f.derivative)


@pytest.mark.parametrize("label", sorted(POWERS))
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_each_identity_side_meets_its_closed_form(grid, label):
    cfg, k_lhs, k_rhs = GRIDS[grid]
    f, (C, p) = _widened(label), POWERS[label]
    worst = []
    for a, b in cfg.intervals:
        for x in _x_points(cfg, a, b):
            # the sweep's own staging and tolerances: these are the bits of the report's identity records
            for lam, alpha, lhs, rhs in _identity_values(f, a, b, x, cfg.alphas, cfg.lambdas, {}):
                for got, terms, k, name in (
                    (lhs, lhs_terms(C, p, a, b, x, lam, alpha), k_lhs, "lhs"),
                    (rhs, rhs_terms(C, p, a, b, x, lam, alpha), k_rhs, "rhs"),
                ):
                    value, size = side(terms)
                    if abs(got - value) > k * (1.0 + size):
                        worst.append((name, a, b, x, lam, alpha, (got - value) / (1.0 + size)))
    assert not worst, worst


_NEAR_END = "rl_right integrates over [1/b, 1/x], a width with about eps*b/(b - x) relative error next to x = b"


@pytest.mark.xfail(reason=_NEAR_END)  # 4.4e-7 of 1 + sum |terms|; 1.9e-11 at alpha = 0.5
def test_identity_lhs_next_to_an_endpoint_meets_its_closed_form():
    # const_3_2 at x = b(1 - 1e-12): each fractional term equals its weight times f, so the exact lhs is 0
    a, b, x, lam, alpha = 1.0, 2.0, 1.999999999998, 0.5, 0.05
    value, size = side(lhs_terms(*POWERS["const_3_2"], a, b, x, lam, alpha))
    assert value == 0.0
    assert abs(identity_lhs(FNS["const_3_2"], ParamPoint(a, b, x, lam, alpha))) <= 1e-14 * (1.0 + size)


def test_identity_rhs_next_to_an_endpoint_meets_its_closed_form():
    # the control: f' = 0, so the kernel-integral form is exactly 0 there
    assert identity_rhs(FNS["const_3_2"], ParamPoint(1.0, 2.0, 1.999999999998, 0.5, 0.05)) == 0.0
