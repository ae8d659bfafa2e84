"""Acceptance gate: the eight primary criteria, one printed PASS/FAIL line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the lines on
success; a plain `pytest -v` shows them only for failing criteria (captured
output).  Each criterion is a separate test so the gate reports per-criterion.
"""
import math
import random
import time

import pytest

from hqfi import (
    IntervalDomain,
    ParamPoint,
    ScalarFunction,
    SweepConfig,
    Theorem,
    bound,
    c1,
    c2,
    c3,
    check_harmonically_convex,
    check_harmonically_quasiconvex,
    corpus,
    evaluate_bound,
    hyp2f1,
    hyp2f1_integral,
    hyp2f1_series,
    identity_lhs,
    integrate,
    kernel_oracle,
    ostrowski_bound,
    rl_left,
    rl_right,
    run_verify,
    specialize,
)

FNS = {f.label: f for f in corpus()}

ACCEPT_SWEEP = SweepConfig(
    intervals=((1.0, 2.0),),
    x_mode="explicit",
    x_values=(1.0, 4.0 / 3.0, 1.5, 2.0),  # a, harmonic mean, midrange, b
    lambdas=(0.0, 1.0 / 3.0, 0.5, 1.0),
    alphas=(0.5, 1.0, 2.0),
    qs=(1.0, 2.0),
    functions="all",
    variant="symmetric_corrected",
)


def _line(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    report = run_verify(ACCEPT_SWEEP)
    return report, time.perf_counter() - t0


def test_criterion_1_identity_validation(sweep):
    report, elapsed = sweep
    s = report.summary
    n_points = s["identity_cases"]
    n_cases = len({(r["function"], r["x"], r["lam"], r["alpha"], r["q"]) for r in report.records})
    worst = s["max_identity_residual"]
    ok = n_points >= 300 and worst <= 1e-8 and s["identity_failures"] == 0 and elapsed <= 60.0
    _line(
        1,
        "identity validation",
        ok,
        f"{n_points} evaluation points ({n_cases} (function, params) cases), "
        f"max scaled residual {worst:.3e} <= 1e-8, {elapsed:.1f}s <= 60s",
    )
    assert ok


def test_criterion_2_closed_form_constants():
    rng = random.Random(2024)
    worst = {"c1": 0.0, "c2": 0.0, "c3": 0.0}
    for _ in range(200):
        alpha = 0.2 + 2.8 * rng.random()
        lam = rng.random()
        q = rng.choice([1.0, 1.5, 2.0, 3.0])
        r = 0.3 + 0.69 * rng.random()

        def rel(closed, oracle):
            return abs(closed - oracle) / max(abs(oracle), 1e-300)

        # the q slot is inert when u = v = 1 (weight identically 1)
        worst["c1"] = max(worst["c1"], rel(c1(alpha, lam), kernel_oracle(alpha, lam, 1.0, 1.0, 1.0)))
        worst["c2"] = max(worst["c2"], rel(c2(alpha, lam, q, r), kernel_oracle(alpha, lam, q, r, 1.0)))
        worst["c3"] = max(worst["c3"], rel(c3(alpha, lam, q, r), kernel_oracle(alpha, lam, q, 1.0, r)))
    ok = worst["c1"] <= 1e-10 and worst["c2"] <= 1e-9 and worst["c3"] <= 1e-9
    _line(
        2,
        "closed-form constants",
        ok,
        f"200-point grid, worst rel delta c1 {worst['c1']:.2e} (tol 1e-10), "
        f"c2 {worst['c2']:.2e}, c3 {worst['c3']:.2e} (tol 1e-9)",
    )
    assert ok


def test_criterion_2_closed_form_constants_near_z_one():
    # r <= 0.1 puts the 2F1 arguments 1 - r (and the kink's, at lam near 1) above 0.9
    rng = random.Random(2025)
    worst = {"c2": 0.0, "c3": 0.0}
    for _ in range(60):
        alpha = 0.1 + 9.9 * rng.random()
        lam = rng.choice([0.0, 1.0 / 3.0, 0.5, 1.0, rng.random()])
        q = rng.choice([1.0, 2.0, 8.0, 1.0 + 7.0 * rng.random()])
        r = rng.choice([0.01, 0.05, 0.1])

        def rel(closed, oracle):
            return abs(closed - oracle) / max(abs(oracle), 1e-300)

        worst["c2"] = max(worst["c2"], rel(c2(alpha, lam, q, r), kernel_oracle(alpha, lam, q, r, 1.0)))
        worst["c3"] = max(worst["c3"], rel(c3(alpha, lam, q, r), kernel_oracle(alpha, lam, q, 1.0, r)))
    ok = worst["c2"] <= 1e-9 and worst["c3"] <= 1e-9
    _line(
        2,
        "closed-form constants near z = 1",
        ok,
        f"60 points at r in {{0.01, 0.05, 0.1}}, worst rel delta c2 {worst['c2']:.2e}, "
        f"c3 {worst['c3']:.2e} (tol 1e-9)",
    )
    assert ok


def test_criterion_3_bound_validity(sweep):
    report, _ = sweep
    s = report.summary
    min_slack = s["min_slack_by_variant"]["symmetric_corrected"]
    ok = s["violations"] == 0 and min_slack >= -1e-9 and s["cases"] > 0
    _line(
        3,
        "bound validity",
        ok,
        f"{s['cases']} bound cases, {s['violations']} violations, "
        f"min slack {min_slack:.3e} >= -1e-9 ({s['bound_skips']} hypothesis skips)",
    )
    assert ok


def test_criterion_4_worked_case():
    # goldens re-derived from the quadrature oracles before freezing:
    # lhs_abs = ln 2 - 2/3, corrected power-mean bound = ln(9/8)
    p = ParamPoint(1.0, 2.0, 4.0 / 3.0, 0.0, 1.0, 1.0)
    lhs_abs = abs(identity_lhs(FNS["identity"], p))
    bound = evaluate_bound(FNS["identity"], p, Theorem.T22).bound
    d_lhs = abs(lhs_abs - (math.log(2.0) - 2.0 / 3.0))
    d_bound = abs(bound - math.log(9.0 / 8.0))
    ok = d_lhs <= 1e-9 and d_bound <= 1e-6
    _line(
        4,
        "worked case",
        ok,
        f"lhs_abs {lhs_abs:.10f} (|delta| {d_lhs:.1e} <= 1e-9), "
        f"bound {bound:.10f} (|delta| {d_bound:.1e} <= 1e-6)",
    )
    assert ok


def _corollary_transcription(f, a, b, lam, alpha, kq):
    """Harmonic-mean corollary braces, written out against endpoint data only."""
    h = 2.0 * a * b / (a + b)
    sup1 = max(abs(f.df(h)), abs(f.df(a)))
    sup2 = max(abs(f.df(h)), abs(f.df(b)))
    return (b - a) / (4.0 * a * b) * (
        a * a * sup1 * c2(alpha, lam, kq, (a + b) / (2.0 * b)) ** (1.0 / kq)
        + h * h * sup2 * c3(alpha, lam, kq, 2.0 * a / (a + b)) ** (1.0 / kq)
    )


def test_criterion_5_corollary_consistency():
    rng = random.Random(505)
    worst = 0.0
    square = FNS["square"]
    for _ in range(20):
        a = 0.5 + 2.0 * rng.random()
        b = a + 0.3 + 2.0 * rng.random()
        alpha = 0.3 + 2.2 * rng.random()
        q = 1.0 + 2.0 * rng.random()
        f = ScalarFunction("sq", IntervalDomain(a, b), square.value, square.derivative)
        base = ParamPoint(a, b, a, 0.0, alpha, q)
        scale = 0.5 * (2.0 * a * b / (b - a)) ** alpha
        for kind, lam in (("simpson", 1.0 / 3.0), ("midpoint", 0.0), ("trapezoid", 1.0)):
            pt = specialize(kind, base)
            pq = q / (q - 1.0)
            pairs = (
                (c1(alpha, lam) ** (1.0 - 1.0 / q) * _corollary_transcription(f, a, b, lam, alpha, q),
                 bound(f, pt, Theorem.T22)),
                (_corollary_transcription(f, a, b, lam, alpha, 1.0), bound(f, pt, Theorem.T23)),
                (c1(alpha, lam) ** (1.0 / q) * _corollary_transcription(f, a, b, lam, alpha, pq),
                 bound(f, pt, Theorem.T24)),
            )
            for transcribed, general in pairs:
                worst = max(worst, abs(transcribed - scale * general) / abs(transcribed))
        # Ostrowski: lam = 0 at a free interior point, |f'| <= M
        x = a + (b - a) * rng.random()
        po = specialize("ostrowski", ParamPoint(a, b, x, 0.5, alpha, q))
        m = 2.0 * b  # sup |f'| for f(u) = u^2 on [a, b]
        t1 = (x - a) ** (alpha + 1.0) / ((a * x) ** (alpha - 1.0) * x * x)
        t2 = (b - x) ** (alpha + 1.0) / ((b * x) ** (alpha - 1.0) * b * b)
        for theorem, pref, kq in (
            (Theorem.T22, c1(alpha, 0.0) ** (1.0 - 1.0 / q), q),
            (Theorem.T23, 1.0, 1.0),
            (Theorem.T24, c1(alpha, 0.0) ** (1.0 / q), q / (q - 1.0)),
        ):
            transcribed = pref * m * (
                t1 * c2(alpha, 0.0, kq, a / x) ** (1.0 / kq)
                + t2 * c3(alpha, 0.0, kq, x / b) ** (1.0 / kq)
            )
            general = ostrowski_bound(m, po, theorem)
            worst = max(worst, abs(transcribed - general) / abs(transcribed))
    ok = worst <= 1e-12
    _line(
        5,
        "corollary consistency",
        ok,
        f"simpson/midpoint/trapezoid/ostrowski x 3 bound families, 20 draws, "
        f"worst rel delta {worst:.2e} <= 1e-12",
    )
    assert ok


def test_criterion_6_convexity_checkers():
    f = FNS["piecewise_plateau"]
    quasi = check_harmonically_quasiconvex(f, n=30)
    conv = check_harmonically_convex(f, n=30)
    replayed = False
    if conv.violated:
        x, y, lam = conv.witness
        mix = x * y / (lam * x + (1.0 - lam) * y)
        replayed = f.value(mix) > lam * f.value(y) + (1.0 - lam) * f.value(x) + 1e-12
    ok = not quasi.violated and conv.violated and replayed
    _line(
        6,
        "convexity checkers",
        ok,
        f"quasi-convex certified at n=30 ({quasi.samples_checked} samples); "
        f"harmonic convexity refuted, witness {conv.witness} replays",
    )
    assert ok


def test_criterion_7_hypergeometric_dual_route():
    golden_a = abs(hyp2f1_series(2.0, 2.0, 3.0, 0.5) - 8.0 * (1.0 - math.log(2.0)))
    golden_b = abs(hyp2f1_series(1.0, 1.0, 2.0, 0.5) - 2.0 * math.log(2.0))
    rng = random.Random(7)
    worst = 0.0
    for _ in range(100):
        a = 0.1 + 2.9 * rng.random()
        b = 0.1 + 2.9 * rng.random()
        c = b + 0.1 + 2.0 * rng.random()
        z = 0.95 * rng.random()
        s, i = hyp2f1_series(a, b, c, z), hyp2f1_integral(a, b, c, z)
        worst = max(worst, abs(s - i) / max(abs(i), 1e-300))
    # above z = 0.9 hyp2f1 sums series in 1 - z, which share no code with the Euler integral
    worst_near_one = 0.0
    for _ in range(100):
        a = 0.1 + 2.9 * rng.random()
        b = 0.1 + 2.9 * rng.random()
        c = b + 0.1 + 2.0 * rng.random()
        z = 0.9 + 0.09 * rng.random()
        h, i = hyp2f1(a, b, c, z), hyp2f1_integral(a, b, c, z)
        worst_near_one = max(worst_near_one, abs(h - i) / max(abs(i), 1e-300))
    ok = worst <= 1e-10 and worst_near_one <= 1e-10 and golden_a <= 1e-10 and golden_b <= 1e-10
    _line(
        7,
        "hypergeometric dual route",
        ok,
        f"100 random points, worst series-vs-integral rel delta {worst:.2e} <= 1e-10; "
        f"100 more at z in (0.9, 0.99), worst w-series-vs-integral rel delta {worst_near_one:.2e} <= 1e-10; "
        f"goldens 8(1-ln2) delta {golden_a:.1e}, 2ln2 delta {golden_b:.1e}",
    )
    assert ok


def test_criterion_8_classical_reduction():
    worst_rl = 0.0
    for f in corpus():
        lo, hi = f.domain.lo, f.domain.hi
        plain = integrate(f.value, lo, hi)
        for val in (rl_left(f.value, lo, 1.0, hi), rl_right(f.value, hi, 1.0, lo)):
            worst_rl = max(worst_rl, abs(val - plain) / max(abs(plain), 1.0))

    # alpha = 1 collapses the identity to a weighted plain-integral form
    worst_form = 0.0
    for label in ("identity", "square", "xlnx", "expx"):
        f = FNS[label]
        a, b = 1.0, 2.0
        mean = integrate(lambda u: f.value(u) / (u * u), a, b) * a * b / (b - a)
        for x in (1.0, 4.0 / 3.0, 1.7, 2.0):
            for lam in (0.0, 0.5, 1.0):
                displayed = (b - a) / (a * b) * (
                    (1.0 - lam) * f.value(x)
                    + lam * (b * (x - a) * f.value(a) + a * (b - x) * f.value(b)) / (x * (b - a))
                    - mean
                )
                actual = identity_lhs(f, ParamPoint(a, b, x, lam, 1.0))
                worst_form = max(worst_form, abs(displayed - actual))
    ok = worst_rl <= 1e-10 and worst_form <= 1e-9
    _line(
        8,
        "classical reduction",
        ok,
        f"rl vs plain quadrature at alpha=1: worst rel delta {worst_rl:.2e} <= 1e-10 "
        f"over {len(corpus())} corpus functions; displayed alpha=1 form vs identity_lhs: "
        f"worst |delta| {worst_form:.2e} <= 1e-9",
    )
    assert ok
