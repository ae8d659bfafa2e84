"""High-precision referee (mpmath, test-only) for 2F1, the kernel moments and their oracle,
and the identity below alpha = 1.

mpmath is not a runtime dependency: these tests skip where it is not installed.
The referee integrates with mpmath's tanh-sinh rule at 30 digits, so it shares
no code with the GK15 engine it checks, and takes 2F1 from mpmath.hyp2f1.
"""
import pytest

from hqfi import specialfn
from hqfi.bounds import ParamPoint, identity_lhs, identity_rhs
from hqfi.harmonic import corpus
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
    monkeypatch.setattr(specialfn, "hyp2f1_integral", _refuse_integral)
    assert _hyp_rel_err(2 * q - 1, alpha, alpha + 1, 1 - r) <= 1e-12
    for lam in (1.0 / 3.0, 1.0):
        ref = _kernel_ref(alpha, lam, q, r, 1.0)
        assert abs(c2(alpha, lam, q, r) - ref) <= 1e-13 * abs(ref), lam


def _refuse_integral(*args):
    raise AssertionError(f"Euler integral reached for {args}")


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5])
@pytest.mark.parametrize("r", [0.01, 0.5])
@pytest.mark.parametrize("lam", [0.0, 1.0 / 3.0, 1.0])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_kernel_oracle_against_referee(alpha, r, lam, q):
    for u, v in ((r, 1.0), (1.0, r)):
        ref = _kernel_ref(alpha, lam, q, u, v)
        assert abs(kernel_oracle(alpha, lam, q, u, v) - ref) <= 1e-10 * abs(ref)


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
