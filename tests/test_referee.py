"""High-precision referee (mpmath, test-only) for 2F1, the kernel moments and their oracle,
the identity below alpha = 1, and the closed forms of `exact_sides`.

mpmath is not a runtime dependency: these tests skip where it is not installed.
The referee integrates with mpmath's tanh-sinh rule at 30 digits, so it shares
no code with the GK15 engine it checks, and takes 2F1 from mpmath.hyp2f1.
"""
from types import SimpleNamespace

import pytest
from exact_sides import POWERS, lhs_terms, rhs_terms, side

from hqfi import specialfn
from hqfi.bounds import ParamPoint, identity_lhs, identity_rhs
from hqfi.harmonic import IntervalDomain, ScalarFunction, corpus
from hqfi.kernels import c2, c3, kernel_oracle
from hqfi.specialfn import hyp2f1

mp = pytest.importorskip("mpmath")

FNS = {f.label: f for f in corpus()}


@pytest.fixture(autouse=True)
def _thirty_digits():
    with mp.workdps(30):
        yield


def _kernel_ref(alpha, lam, q, u, v):
    """int_0^1 |t^alpha - lam| (t*u + (1-t)*v)^(-2q) dt, split at the kink."""
    alpha, lam, u, v = mp.mpf(alpha), mp.mpf(lam), mp.mpf(u), mp.mpf(v)
    kink = lam ** (1 / alpha)
    points = [0, kink, 1] if 0 < kink < 1 else [0, 1]
    return mp.quad(lambda t: abs(t**alpha - lam) * (t * u + (1 - t) * v) ** (-2 * q), points)


def _families(alpha, q):
    """The 2F1 parameter triples of c2 and c3: F1, G, the elementary E, and D's (2q-1, alpha; alpha+1)."""
    return ((2 * q, alpha + 1, alpha + 2), (2 * q, 1.0, alpha + 2), (2 * q, 1.0, 2.0), (2 * q - 1, alpha, alpha + 1))


def _hyp_rel_err(a, b, c, z):
    ref = mp.hyp2f1(a, b, c, z)
    return abs((hyp2f1(a, b, c, z) - ref) / ref)


@pytest.mark.parametrize("z", [0.9 + 1e-7, 0.95, 0.99, 0.999])
def test_hyp2f1_moment_families_against_referee(z):
    worst = max(
        (_hyp_rel_err(a, b, c, z), (a, b, c))
        for alpha in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
        for q in (1.0, 1.25, 1.5, 2.0, 4.0, 7.5, 8.0, 10.0)
        for a, b, c in _families(alpha, q)
    )
    assert worst[0] <= 1e-12, worst


@pytest.mark.parametrize("offset", [1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3])
def test_hyp2f1_near_integer_d_against_referee(offset):
    # d = c - a - b is an integer at offset 0 in every triple below; the offset moves
    # d off it through a (as q does in the moments) or through c (which also moves c - b)
    worst = 0.0
    for z in (0.9 + 1e-7, 0.99, 0.999):
        for alpha in (1.0, 5.0):
            for q in (1.0, 8.0):
                for a, b, c in _families(alpha, q):
                    worst = max(worst, _hyp_rel_err(a + offset, b, c, z), _hyp_rel_err(a, b, c + offset, z))
    assert worst <= 1e-12


def test_hyp2f1_fallback_point_against_referee():
    # the w-series cancels here, so hyp2f1 takes the Euler integral
    assert _hyp_rel_err(26.626786447863417, 28.529754408299173, 56.372857676315924, 0.9221868645536049) <= 1e-12


@pytest.mark.xfail(reason="hyp2f1_integral misses 1e-12 where the power series is good")
@pytest.mark.parametrize(
    "a, b, c, z",
    [
        (16.0, 11.0, 12.0 + 1e-9, 0.99),  # c - b just above an integer: off by 4.95e-12
        (30.0, 30.0, 89.0, 0.91),  # off by 2.56e-9
    ],
)
def test_hyp2f1_integral_against_referee(a, b, c, z):
    ref = mp.hyp2f1(a, b, c, z)
    assert abs((specialfn.hyp2f1_integral(a, b, c, z) - ref) / ref) <= 1e-12


def test_hyp2f1_series_where_the_integral_misses_against_referee():
    ref = mp.hyp2f1(30, 30, 89, 0.91)
    assert abs((specialfn.hyp2f1_series(30.0, 30.0, 89.0, 0.91) - ref) / ref) <= 1e-15


@pytest.mark.parametrize("r", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("q", [1.0, 3.7, 8.0])
def test_moments_near_z_one_against_referee(r, q):
    # r <= 0.1 puts 1 - r, and the kink's z at lam = 1, above 0.9; at lam = 1, c2
    # subtracts two 2F1 values about 1e4 times its size, the worst case here
    for alpha in (0.1, 0.5, 2.0, 10.0):
        for lam in (0.0, 1.0 / 3.0, 1.0):
            for closed, (u, v) in ((c2, (r, 1.0)), (c3, (1.0, r))):
                ref = _kernel_ref(alpha, lam, q, u, v)
                got = closed(alpha, lam, q, r)
                assert abs(got - ref) <= 1e-11 * abs(ref), (closed.__name__, alpha, lam)


@pytest.mark.parametrize("r", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("q", [1.0, 3.7, 8.0])
def test_moments_at_lam_one_against_referee(r, q):
    # at lam = 1, c2 is D(1 - r) and c3 is E - G at 1 - r: no two large values cancel
    for alpha in (0.1, 0.5, 2.0, 10.0):
        for closed, (u, v) in ((c2, (r, 1.0)), (c3, (1.0, r))):
            ref = _kernel_ref(alpha, 1.0, q, u, v)
            got = closed(alpha, 1.0, q, r)
            assert abs(got - ref) <= 1e-13 * abs(ref), (closed.__name__, alpha)


def test_d_family_where_round_d_leaves_a_plus_m_negative_against_referee(monkeypatch):
    # 2F1(2q-1, alpha; alpha+1; z) above z = 0.9 has d = 2q - 2 after Euler's transformation,
    # whose a + round(d) = alpha - 0.19 < 0 at this jittered q; the w-series splits one term
    # later instead of falling back to the Euler integral
    alpha, q, r = 0.1, 2.093918885249338, 0.01
    monkeypatch.setattr(specialfn, "_hyp2f1_integral", _refuse_integral)
    assert _hyp_rel_err(2 * q - 1, alpha, alpha + 1, 1 - r) <= 1e-12
    for lam in (1.0 / 3.0, 1.0):
        ref = _kernel_ref(alpha, lam, q, r, 1.0)
        assert abs(c2(alpha, lam, q, r) - ref) <= 1e-13 * abs(ref), lam


def _refuse_integral(*args):
    raise AssertionError(f"Euler integral reached for {args}")


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5])
@pytest.mark.parametrize("r", [1e-3, 0.01, 0.5])
@pytest.mark.parametrize("lam", [0.0, 1.0 / 3.0, 1.0])
@pytest.mark.parametrize("q", [1.0, 2.0, 8.0])
def test_kernel_oracle_against_referee(alpha, r, lam, q):
    # at alpha = 0.1, r = 1e-3, lam = 1/3, q = 8, (u, v) = (r, 1) an oracle that took the piece
    # next to the heavy end s = 1 in s itself was off by 8.8e-12
    for u, v in ((r, 1.0), (1.0, r)):
        ref = _kernel_ref(alpha, lam, q, u, v)
        assert abs(kernel_oracle(alpha, lam, q, u, v) - ref) <= 5e-12 * abs(ref), (u, v)


@pytest.mark.parametrize("alpha", [0.3, 0.818318909301447, 1.5, 2.5])
@pytest.mark.parametrize("r", [0.05, 0.5])
def test_kernel_oracle_where_k_alpha_is_no_integer_against_referee(alpha, r):
    # k * alpha is no integer at k = ceil(1/alpha), so s^(k alpha) stays non-analytic at s = 0; at alpha = 0.818...,
    # lam = 1/3, q = 1.2415..., (u, v) = (1, 0.05) an oracle in s = t^(1/2) was off by 1.02e-10
    worst = max(
        (abs(kernel_oracle(alpha, lam, q, u, v) - ref) / abs(ref), (lam, q, u, v))
        for lam in (0.0, 1.0 / 3.0, 1.0)
        for q in (1.0, 1.2415494761666714)
        for u, v in ((r, 1.0), (1.0, r))
        for ref in (_kernel_ref(alpha, lam, q, u, v),)
    )
    assert worst[0] <= 1e-12, worst


def test_identity_at_the_plateau_case_against_referee():
    # piecewise_plateau, a = 0.1, b = x = 4, lam = 1, alpha = 0.05: only the left
    # operator is present, and I = wa * f(a) - Gamma(alpha+1)/Gamma(alpha) * int_{1/4}^{10} w(t) f(1/t) dt
    # with w(t) = (10 - t)^(alpha - 1).  On [1, 10] f(1/t) = 1, so that part is
    # 9^alpha / alpha exactly; on [1/4, 1] w is bounded and the integrand smooth.
    f = FNS["piecewise_plateau"]
    a, b, x, lam, alpha = mp.mpf("0.1"), mp.mpf(4), mp.mpf(4), 1, mp.mpf("0.05")
    wa = ((x - a) / (a * x)) ** alpha
    kinked = mp.quad(lambda t: (1 / a - t) ** (alpha - 1) * (1 / t - 2) ** 2, [1 / x, 1])
    integral = kinked + (1 / a - 1) ** alpha / alpha
    ref = wa * f(0.1) - mp.gamma(alpha + 1) / mp.gamma(alpha) * integral
    assert abs(ref - mp.mpf("1.77437668414e-3")) < 1e-14
    p = ParamPoint(0.1, 4.0, 4.0, 1.0, 0.05)
    for side in (identity_lhs, identity_rhs):
        assert abs(side(f, p) - ref) <= 1e-11, side.__name__


def _rhs_ref(f, a, b, x, lam, alpha):
    """Kernel-integral form of the identity value, integrated by the referee."""
    alpha, lam = mp.mpf(alpha), mp.mpf(lam)
    kink = lam ** (1 / alpha)
    points = [0, kink, 1] if 0 < kink < 1 else [0, 1]

    def brace(end):
        def g(t):
            A = t * end + (1 - t) * x
            return (t**alpha - lam) / A**2 * f.df(end * x / A)

        return mp.quad(g, points)

    left = (x - a) ** (alpha + 1) / mp.mpf(a * x) ** (alpha - 1) * brace(mp.mpf(a))
    right = (b - x) ** (alpha + 1) / mp.mpf(b * x) ** (alpha - 1) * brace(mp.mpf(b))
    return left - right


@pytest.mark.parametrize("alpha", [0.1, 0.5])
@pytest.mark.parametrize("label", sorted(set(FNS) - {"piecewise_plateau"}))
def test_identity_below_alpha_one_against_referee(label, alpha):
    # the corpus functions are smooth on [1, 2]; f and f' are evaluated in
    # double precision, so the referee is good to about 1e-15 of the terms
    f = FNS[label]
    ref = _rhs_ref(f, 1.0, 2.0, 1.25, 1.0 / 3.0, alpha)
    p = ParamPoint(1.0, 2.0, 1.25, 1.0 / 3.0, alpha)
    for side in (identity_lhs, identity_rhs):
        assert abs(side(f, p) - ref) <= 1e-11 * (1 + abs(ref)), side.__name__


_TINY_WEIGHT = "integrate_singular's u^(1/g) substitution packs the weight where the first GK15 panel cannot see it"


@pytest.mark.parametrize(
    "alpha",
    [
        pytest.param(1e-6, marks=pytest.mark.xfail(reason=_TINY_WEIGHT)),  # lhs - ref = -5.1e-6
        pytest.param(1e-4, marks=pytest.mark.xfail(reason=_TINY_WEIGHT)),  # lhs - ref = -5.1e-4
        1e-3,
    ],
)
def test_identity_lhs_at_a_tiny_weight_exponent_against_referee(alpha):
    # identity_rhs is good to 1e-15 at all three alpha; the lhs integrates against (t - c)^(alpha - 1)
    f = FNS["expx"]
    ref = _rhs_ref(f, 1.0, 2.0, 1.25, 0.5, alpha)
    got = identity_lhs(f, ParamPoint(1.0, 2.0, 1.25, 0.5, alpha))
    assert abs(got - ref) <= 1e-11 * (1 + abs(ref))


@pytest.mark.parametrize("lam", [0.5, 1.0])
@pytest.mark.parametrize("label", ["reciprocal", "sqrtx", "expx"])
def test_identity_rhs_where_its_lam_free_integrals_cancel_against_referee(label, lam):
    # identity_rhs takes each brace as pref (P - lam Q); on [0.1, 4] at lam near 1
    # P and Q nearly cancel, and the worst case is reciprocal at x = H, alpha = 4, lam = 1
    f = FNS[label]
    a, b = 0.1, 4.0
    for x in (a, 2.0 * a * b / (a + b), b):
        for alpha in (0.05, 1.0, 4.0):
            ref = _rhs_ref(f, a, b, x, lam, alpha)
            got = identity_rhs(f, ParamPoint(a, b, x, lam, alpha))
            assert abs(got - ref) <= 1e-11 * (1 + abs(ref)), (x, alpha)


def _lhs_ref(F, a, b, x, lam, alpha, breaks=()):
    """identity_lhs with F taken in mpmath, each fractional integral in u = s^alpha, s its offset from the singular end.

    Gamma(alpha+1) J_{1/x+}^alpha (F o inv)(1/a) = int_0^wa F(a / (1 - a u^(1/alpha))) du, with
    wa = ((x - a)/(ax))^alpha, since alpha s^(alpha-1) ds = du; the right operator is the mirror
    image, F(b / (1 + b u^(1/alpha))) up to wb.  No integrand is singular, and each width comes
    from the exact offset (x - a)/(ax) or (b - x)/(bx), not from a difference of reciprocals.
    Each of F's `breaks` cuts the integral it falls in, at its image in u.
    """
    a, b, x, lam, alpha = (mp.mpf(v) for v in (a, b, x, lam, alpha))
    breaks = [mp.mpf(v) for v in breaks]
    wa, wb = ((x - a) / (a * x)) ** alpha, ((b - x) / (b * x)) ** alpha
    cuts_a = sorted((1 / a - 1 / v) ** alpha for v in breaks if a < v < x)
    cuts_b = sorted((1 / v - 1 / b) ** alpha for v in breaks if x < v < b)
    left = mp.quad(lambda u: F(a / (1 - a * u ** (1 / alpha))), [0, *cuts_a, wa])
    right = mp.quad(lambda u: F(b / (1 + b * u ** (1 / alpha))), [0, *cuts_b, wb])
    return (1 - lam) * (wa + wb) * F(x) + lam * (wa * F(a) + wb * F(b)) - (left + right)


@pytest.mark.parametrize(
    "a, b, x, lam, alpha",
    [(1.0, 2.0, 1.25, 1.0 / 3.0, 0.5), (1.0, 2.0, 2.0, 0.5, 2.0), (0.1, 4.0, 3.0, 0.5, 0.05), (0.5, 4.0, 1.0, 1.0, 10.0)],
)
@pytest.mark.parametrize("label", sorted(POWERS))
def test_exact_sides_against_referee(label, a, b, x, lam, alpha):
    # both closed forms against the two integral forms, each integrated by the referee with f and f' in mpmath;
    # the worst case is 3.3e-16 of 1 + sum |terms|
    C, p = POWERS[label]
    f = SimpleNamespace(df=lambda u: C * p * u ** (p - 1))
    for terms, ref in (
        (lhs_terms(C, p, a, b, x, lam, alpha), _lhs_ref(lambda u: C * u**p, a, b, x, lam, alpha)),
        (rhs_terms(C, p, a, b, x, lam, alpha), _rhs_ref(f, a, b, x, lam, alpha)),
    ):
        value, size = side(terms)
        assert abs(value - ref) <= 1e-14 * (1.0 + size)


_NEAR_END = "rl_right integrates over [1/b, 1/x], a width with about eps*b/(b - x) relative error next to x = b"


@pytest.mark.parametrize(
    "alpha",
    [
        pytest.param(0.05, marks=pytest.mark.xfail(reason=_NEAR_END)),  # lhs - ref = 3.2e-6 of 1 + |ref|
        pytest.param(0.5, marks=pytest.mark.xfail(reason=_NEAR_END)),  # 1.4e-10
    ],
)
def test_identity_lhs_next_to_an_endpoint_against_referee(alpha):
    # expx on [1, 2] at x = b(1 - 1e-12), lam = 1/2
    x = 1.999999999998
    ref = _lhs_ref(mp.exp, 1.0, 2.0, x, 0.5, alpha)
    got = identity_lhs(FNS["expx"], ParamPoint(1.0, 2.0, x, 0.5, alpha))
    assert abs(got - ref) <= 1e-12 * (1 + abs(ref))


@pytest.mark.parametrize("alpha", [0.05, 0.5])
def test_identity_rhs_next_to_an_endpoint_against_referee(alpha):
    # the control: the kernel-integral form meets the lhs referee at the same points (7.6e-16 and 3.7e-16)
    x = 1.999999999998
    ref = _lhs_ref(mp.exp, 1.0, 2.0, x, 0.5, alpha)
    got = identity_rhs(FNS["expx"], ParamPoint(1.0, 2.0, x, 0.5, alpha))
    assert abs(got - ref) <= 1e-15 * (1 + abs(ref))


_NEAR_EITHER_END = "rl_left and rl_right integrate over [1/x, 1/a] and [1/b, 1/x], widths from rounded reciprocals"


@pytest.mark.parametrize(
    "x, alpha",
    [
        # a(1 + 1e-12) and b(1 - 1e-12); the comments give today's lhs, where the exact value is 0
        pytest.param(0.3000000000003, 0.05, marks=pytest.mark.xfail(reason=_NEAR_EITHER_END)),  # -9.9e-8
        pytest.param(0.3000000000003, 0.5, marks=pytest.mark.xfail(reason=_NEAR_EITHER_END)),  # -6.8e-12
        pytest.param(0.6999999999993, 0.05, marks=pytest.mark.xfail(reason=_NEAR_EITHER_END)),  # -6.5e-7
        pytest.param(0.6999999999993, 0.5, marks=pytest.mark.xfail(reason=_NEAR_EITHER_END)),  # -3.0e-11
    ],
)
def test_identity_lhs_next_to_either_endpoint_of_the_plateau_against_referee(x, alpha):
    # piecewise_plateau is the constant 1 on [0.3, 0.7], so Gamma(alpha+1) times each fractional
    # integral of it is exactly wa or wb, and the identity value at lam = 1/2 is exactly 0
    f = FNS["piecewise_plateau"]
    assert [f(u) for u in (0.3, x, 0.7)] == [1.0, 1.0, 1.0]
    assert abs(identity_lhs(f, ParamPoint(0.3, 0.7, x, 0.5, alpha))) <= 1e-12


@pytest.mark.parametrize("x", [0.3000000000003, 0.6999999999993])
@pytest.mark.parametrize("alpha", [0.05, 0.5])
def test_identity_rhs_next_to_either_endpoint_of_the_plateau_against_referee(x, alpha):
    # the control: f' is 0 on the plateau, so the kernel-integral form is exactly 0 there
    assert identity_rhs(FNS["piecewise_plateau"], ParamPoint(0.3, 0.7, x, 0.5, alpha)) == 0.0


_BREAK_NEAR_END = "integrate_singular substitutes only the piece at the singular end; the next one samples the weight"


@pytest.mark.xfail(reason=_BREAK_NEAR_END)  # lhs is 5.0e-10 off, relative
def test_identity_lhs_with_a_break_next_to_the_singular_end_against_referee():
    # item 20's witness at x = a on [0.1, 0.2], alpha = lam = 0.1: f' is +1 below u* = b - 2e-11 and
    # -1 above, so the right operator's cut 1/u* lies 5e-10 from its singular end 1/b (ROADMAP item 5)
    a, b, alpha, lam = 0.1, 0.2, 0.1, 0.1
    kink = b - 2.0e-11
    f = ScalarFunction("kinked", IntervalDomain(a, b), lambda u: u if u < kink else 2.0 * kink - u, breaks=(kink,))
    with mp.workdps(40):
        ref = _lhs_ref(lambda u: u if u < kink else 2 * mp.mpf(kink) - u, a, b, a, lam, alpha, breaks=(kink,))
        got = identity_lhs(f, ParamPoint(a, b, a, lam, alpha))
        assert abs(got - ref) <= 1e-12 * abs(ref)


def _moment_ref(closed, alpha, lam, q, r):
    """c2 (u, v) = (r, 1) or c3 (u, v) = (1, r) at 50 digits, split at the kink and near the heavy end.

    The integrand changes scale within a few r of the end where the denominator is r:
    t = 1 for c2, t = 0 for c3.
    """
    with mp.workdps(50):
        alpha, lam, r = mp.mpf(alpha), mp.mpf(lam), mp.mpf(r)
        if closed is c2:
            u, v, near = r, 1, [1 - s * r for s in (100, 10, 1)]
        else:
            u, v, near = 1, r, [s * r for s in (mp.mpf("0.1"), 1, 10, 100)]
        inner = [t for t in (lam ** (1 / alpha), *near) if 0 < t < 1]
        points = [mp.mpf(0), *sorted(set(inner)), mp.mpf(1)]
        return mp.quad(lambda t: abs(t**alpha - lam) * (t * u + (1 - t) * v) ** (-2 * q), points)


_SMALL_R = "z1 = 1 - r, then w = 1 - z1 in hyp2f1: w carries about 1.1e-16 absolute error, 1e-16/r relative"


@pytest.mark.parametrize(
    "alpha, lam, q, r",
    [
        (1.0, 0.5, 1.0, 1e-2),  # c2 off by 9.0e-16, c3 by 1.7e-16
        (0.5, 1.0 / 3.0, 2.0, 1e-2),  # 2.3e-15, 9.7e-15
        pytest.param(1.0, 0.5, 1.0, 1e-6, marks=pytest.mark.xfail(reason=_SMALL_R)),  # 2.9e-11, 4.0e-11
        pytest.param(1.0, 0.5, 1.0, 1e-8, marks=pytest.mark.xfail(reason=_SMALL_R)),  # 5.0e-9, 8.3e-9
        pytest.param(0.5, 1.0 / 3.0, 2.0, 1e-6, marks=pytest.mark.xfail(reason=_SMALL_R)),  # 8.6e-11, 5.0e-11
        pytest.param(0.5, 1.0 / 3.0, 2.0, 1e-8, marks=pytest.mark.xfail(reason=_SMALL_R)),  # 1.5e-8, 1.6e-8
        pytest.param(1.0, 0.5, 1.0, 1e-10, marks=pytest.mark.xfail(reason=_SMALL_R)),  # 8.3e-8, 8.3e-8
        pytest.param(1.0, 0.5, 1.0, 1e-12, marks=pytest.mark.xfail(reason=_SMALL_R)),  # 2.2e-5, 8.9e-5
        pytest.param(0.5, 1.0 / 3.0, 2.0, 1e-10, marks=pytest.mark.xfail(reason=_SMALL_R)),  # 2.5e-7, 4.9e-7
        pytest.param(0.5, 1.0 / 3.0, 2.0, 1e-12, marks=pytest.mark.xfail(reason=_SMALL_R)),  # 6.6e-5, 8.2e-5
    ],
)
def test_moments_at_small_r_against_referee(alpha, lam, q, r):
    # at (1, 1/2, 1) the referee matches the exact antiderivative to 20 digits at r = 1e-6 and 1e-8
    for closed in (c2, c3):
        ref = _moment_ref(closed, alpha, lam, q, r)
        assert abs(closed(alpha, lam, q, r) - ref) <= 1e-12 * ref, closed.__name__


_ORACLE_SMALL_R = "kernel_oracle's graded piece at s = 1 takes 1 - t from t = s^k near 1, where A = t*r + (1 - t) is about r"


@pytest.mark.parametrize(
    "closed, alpha, lam, q",
    [
        pytest.param(c2, 1.0, 0.5, 1.0, marks=pytest.mark.xfail(reason=_ORACLE_SMALL_R)),  # off by 7.2e-11
        (c3, 1.0, 0.5, 1.0),  # 1.1e-16: the c3 oracle's heavy end is s = 0, where t itself is small
        (c3, 0.5, 1.0 / 3.0, 2.0),  # 1.0e-16
    ],
)
def test_kernel_oracle_at_small_r_against_referee(closed, alpha, lam, q):
    # the c2 oracle integrates with (u, v) = (r, 1), the c3 oracle with (1, r); at (0.5, 1/3, 2) and
    # (0.1, 0.9, 3) with r = 1e-8, and at (1, 1/2, 1) with r = 1e-12, the c2 oracle exhausts its
    # panel budget after about 6 s, so those points stay out of this suite
    r = 1e-8
    u, v = (r, 1.0) if closed is c2 else (1.0, r)
    ref = _moment_ref(closed, alpha, lam, q, r)
    tol = 1e-12 if closed is c2 else 1e-15
    assert abs(kernel_oracle(alpha, lam, q, u, v) - ref) <= tol * ref
