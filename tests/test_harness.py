"""Sweep configs, campaign reports, the CLI surface, and the expression grammar."""
import copy
import csv
import enum
import json
import math
import pickle
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hqfi.bounds as bounds
import hqfi.cli as cli
import hqfi.fracint as fracint
import hqfi.harmonic as harmonic
import hqfi.harness as harness
import hqfi.kernels as kernels
import hqfi.quad as quad
from hqfi.bounds import ParamPoint, Theorem, Variant, bound, identity_lhs, identity_rhs
from hqfi.cli import build_parser, main
from hqfi.harmonic import IntervalDomain, ScalarFunction, check_harmonically_quasiconvex, corpus
from hqfi.harness import (
    CampaignReport,
    SweepConfig,
    _compile,
    run_checkfn,
    run_constants,
    run_verify,
    variants_for,
)
from hqfi.kernels import c1, c2, c3
from hqfi.quad import _ABS_TOL, QuadratureError

SMALL = {
    "lambdas": [0.0, 0.5],
    "alphas": [1.0],
    "qs": [1.0, 2.0],
    "functions": ["identity", "square"],
}


# --- SweepConfig ---


def test_config_defaults_round_trip():
    cfg = SweepConfig()
    assert SweepConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.intervals == ((1.0, 2.0),)
    assert cfg.variant == "symmetric_corrected"


def test_config_to_dict_has_json_shapes():
    # the benchmark compares a report's config with to_dict() by ==, and a tuple never equals the parsed list
    cfg = SweepConfig(
        intervals=((1.0, 2.0), (0.5, 3.0)),
        x_mode="explicit",
        x_count=3,
        x_values=(1.25, 1.5),
        lambdas=(0.25,),
        alphas=(0.75, 1.5),
        qs=(1.5,),
        functions=("square", "expx"),
        variant="both",
        seed=7,
        tol_identity=2e-8,
        tol_slack=2e-9,
        checker_n=9,
        tol_scale=0.5,
    )
    d = cfg.to_dict()
    assert all(d[name] != value for name, value in SweepConfig().to_dict().items())
    assert d == json.loads(json.dumps(d))
    assert d["intervals"] == [[1.0, 2.0], [0.5, 3.0]] and d["functions"] == ["square", "expx"]
    assert SweepConfig.from_dict(d) == cfg
    payload = run_verify(SweepConfig(**SMALL)).to_payload()
    assert set(payload) == {"version", "generated_at", "config", "records", "identity_records", "violations", "summary"}


def test_generated_at_has_the_isoformat_shape():
    from datetime import datetime, timedelta, timezone

    # the formatter at fixed times, against datetime's own isoformat: a fraction of 6 digits, none at 0 microseconds
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    for ns in (0, 999, 1_000, 1_760_000_000_123_456_789, 1_760_000_000_000_000_999, 1_760_000_000_999_999_999):
        assert harness._utc_isoformat(ns) == (epoch + timedelta(microseconds=ns // 1000)).isoformat(), ns
    assert harness._utc_isoformat(1_760_000_000_000_000_999) == "2025-10-09T08:53:20+00:00"
    stamp = run_verify(SweepConfig(**SMALL)).generated_at
    parsed = datetime.fromisoformat(stamp)
    assert parsed.utcoffset() == timedelta(0) and stamp.endswith("+00:00")
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?\+00:00", stamp)
    assert ("." in stamp) == (parsed.microsecond != 0)
    assert abs(parsed - datetime.now(timezone.utc)) < timedelta(minutes=5)


def test_public_records_are_immutable_values():
    # assignment and deletion raise AttributeError; equal fields make equal, equally hashed records
    f = corpus()[0]
    records = (
        ParamPoint(1.0, 2.0, 1.5, 0.5, 1.0),
        f.domain,
        f,
        SweepConfig(**SMALL),
        check_harmonically_quasiconvex(f),
        bounds.evaluate_bound(f, ParamPoint(1.0, 2.0, 1.5, 0.5, 1.0), Theorem.T22),
        run_verify(SweepConfig(**SMALL)),
    )
    for rec in records:
        name = type(rec).__name__
        for attr in ("label", "lo", "a", "qs", "status", "slack", "records", "anything"):
            with pytest.raises(AttributeError):
                setattr(rec, attr, 0.0)
        with pytest.raises(AttributeError):
            delattr(rec, {"ParamPoint": "a", "IntervalDomain": "lo", "ScalarFunction": "label"}.get(name, "qs"))
    p = ParamPoint(1.0, 2.0, 1.5, 0.5, 1.0)
    assert p == ParamPoint(a=1.0, b=2.0, x=1.5, lam=0.5, alpha=1.0, q=1.0) and hash(p) == hash(ParamPoint(1.0, 2.0, 1.5, 0.5, 1.0))
    assert p != ParamPoint(1.0, 2.0, 1.5, 0.5, 1.0, 2.0) and p != (1.0, 2.0, 1.5, 0.5, 1.0, 1.0)
    assert repr(p) == "ParamPoint(a=1.0, b=2.0, x=1.5, lam=0.5, alpha=1.0, q=1.0)"
    assert SweepConfig(**SMALL) == SweepConfig.from_dict(SMALL) and len({SweepConfig(), SweepConfig()}) == 1
    assert {f.domain: 1}[type(f.domain)(1.0, 2.0)] == 1 and repr(f.domain) == "IntervalDomain(lo=1.0, hi=2.0)"
    # pickle and copy rebuild a record through its constructor; a report, whose bound records
    # are a view with no ==, rebuilds to the same bytes
    for rec in records[:2] + records[3:-1]:
        assert pickle.loads(pickle.dumps(rec)) == rec and copy.deepcopy(rec) == rec, type(rec).__name__
    report = records[-1]
    for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert type(twin) is CampaignReport and twin.to_json() == report.to_json()
    assert copy.copy(f).value is f.value and copy.copy(f).df is f.df
    # a ScalarFunction is equal only to itself, and its repr leaves out the derived df
    twin = type(f)(f.label, f.domain, f.value, f.derivative, f.quasi, f.breaks)
    assert f == f and f != twin and len({f, twin}) == 2
    assert repr(f).startswith("ScalarFunction(label='const_zero', domain=IntervalDomain(lo=1.0, hi=2.0), value=")
    assert "df=" not in repr(f)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        SweepConfig.from_dict({"alpha": [1.0]})


def test_config_and_cli_have_no_quadrature_tolerance_knobs(capsys):
    # the sweep's quadrature runs at integrate's own tolerances times tol_scale
    assert len(SweepConfig._fields) == 14
    for key in ("tol_quad_abs", "tol_quad_rel"):
        with pytest.raises(ValueError, match="unknown config keys"):
            SweepConfig.from_dict({key: 1e-12})
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag, "1e-12"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1e-12" in capsys.readouterr().err


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(intervals=())
    with pytest.raises(ValueError):
        SweepConfig(intervals=((2.0, 1.0),))
    with pytest.raises(ValueError):
        SweepConfig(lambdas=(1.5,))
    with pytest.raises(ValueError):
        SweepConfig(alphas=())
    with pytest.raises(ValueError):
        SweepConfig(qs=(0.5,))
    with pytest.raises(ValueError):
        SweepConfig(functions=())
    with pytest.raises(ValueError):
        SweepConfig(variant="corrected")  # config schema uses the long names
    with pytest.raises(ValueError):
        SweepConfig(x_mode="list")
    with pytest.raises(ValueError):
        SweepConfig(x_mode="grid", x_count=1)
    with pytest.raises(ValueError):
        SweepConfig(x_mode="explicit")
    with pytest.raises(ValueError):
        SweepConfig(tol_scale=0.0)
    with pytest.raises(ValueError, match=re.escape("checker_n must be >= 2, got 1")):
        SweepConfig(checker_n=1)
    # the run uses each tolerance times tol_scale: a product that overflows to inf would pass
    # every check, and one that underflows to 0 none
    for name in ("tol_identity", "tol_slack"):
        for value, scale, scaled in ((1e10, 1e300, "inf"), (1e-30, 1e-300, "0.0")):
            message = f"{name} * tol_scale must be a positive finite real, got {scaled}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                SweepConfig(**{name: value, "tol_scale": scale})
    # bool is an int to Python, but JSON true is no number
    bools = ({"tol_identity": True}, {"lambdas": [True]}, {"seed": True}, {"x_count": True}, {"intervals": [[True, 2]]})
    # float() reads "0.5", but a quoted number is no number either
    strings = ({"lambdas": ["0.5"], "alphas": ["1"]}, {"intervals": [["1", "2"]]}, {"qs": ["2"]})
    for bad in bools + strings:
        with pytest.raises(ValueError, match="cannot be|must be a positive real"):
            SweepConfig.from_dict(bad)
    # a lone label is not a list of its characters, an object not a list of its keys,
    # and a number not a label
    for bad in ("expx", {"expx": 1}, [5]):
        with pytest.raises(ValueError, match='functions is "all" or a list of labels'):
            SweepConfig.from_dict({"functions": bad})


def _rejects(make, *args, **kwargs) -> bool:
    try:
        make(*args, **kwargs)
    except ValueError:
        return True
    return False


_BAD_AND_GOOD = (math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 1e-3, 0.5, 0.9, 1.0, 1.5, 2.0, 40.0)


def test_config_and_point_check_an_interval_exactly_as_its_domain_does():
    # IntervalDomain is the interval rule's one home: a, b finite with 0 < a < b, and x in [a, b]
    differ = []
    for a in _BAD_AND_GOOD:
        for b in _BAD_AND_GOOD:
            want = _rejects(IntervalDomain, a, b)
            got = (_rejects(SweepConfig, intervals=((a, b),)), _rejects(ParamPoint, a, b, a, 0.5, 1.0))
            if got != (want, want):
                differ.append((a, b, want, got))
    domain = IntervalDomain(0.5, 1.5)
    for x in _BAD_AND_GOOD:
        want = not domain.contains(x)
        cfg = SweepConfig(x_mode="explicit", x_values=(x,))
        got = (_rejects(ParamPoint, 0.5, 1.5, x, 0.5, 1.0), _rejects(harness._x_points, cfg, domain))
        if got != (want, want):
            differ.append((x, want, got))
    assert not differ, differ


def test_config_and_point_check_moment_parameters_exactly_as_the_kernels_do():
    # kernels._check_args is the moment rule's one home: alpha > 0, lam in [0, 1], q >= 1, each finite
    differ = []
    for alpha in _BAD_AND_GOOD:
        for lam in _BAD_AND_GOOD:
            for q in _BAD_AND_GOOD:
                want = _rejects(kernels._check_args, alpha, lam, q, 1.0)
                got = (
                    _rejects(SweepConfig, alphas=(alpha,), lambdas=(lam,), qs=(q,)),
                    _rejects(ParamPoint, 1.0, 2.0, 1.5, lam, alpha, q),
                )
                if got != (want, want):
                    differ.append((alpha, lam, q, want, got))
    assert not differ, differ
    # one bad value anywhere in a list fails the config before any work, and an empty list fails too
    for bad in ({"lambdas": (0.0, 1.5)}, {"qs": (2.0, 0.9)}, {"alphas": (1.0, math.nan)}, {"qs": ()}, {"lambdas": ()}):
        assert _rejects(SweepConfig, **bad), bad


@pytest.mark.parametrize(
    "key, values",
    [
        ("lambdas", [0, 0]),
        ("alphas", [1.0, 0.5, 1]),
        ("qs", [2, 2.0]),
        ("x_values", [1.5, 1.25, 1.5]),
        ("intervals", [[1, 2], [1.0, 2.0]]),
    ],
)
def test_config_rejects_repeated_grid_values(key, values):
    # a repeated value used to repeat the bound records of its grid points
    # while the identity records were deduplicated
    extra = {"x_mode": "explicit"} if key == "x_values" else {}
    with pytest.raises(ValueError, match=f"{key} must not repeat a value"):
        SweepConfig.from_dict({key: values, **extra})


def test_config_coerces_lists_to_tuples():
    cfg = SweepConfig(intervals=[[1, 2]], lambdas=[0, 1], functions=["identity"])
    assert cfg.intervals == ((1.0, 2.0),)
    assert cfg.lambdas == (0.0, 1.0)
    assert cfg.functions == ("identity",)


def test_variants_for():
    assert [v.value for v in variants_for("both")] == ["as_stated", "symmetric_corrected"]
    assert [v.value for v in variants_for("as_stated")] == ["as_stated"]


# --- run_verify ---


def test_verify_deterministic_modulo_timestamp(moment_calls):
    cfg = SweepConfig.from_dict(SMALL)
    memos = (kernels._g, kernels._d)
    # p1 fills the 2F1-value memos from cold, p2 reads every value from them; no memo
    # keeps a brace moment between runs, so each run computes the same moments itself
    p1 = run_verify(cfg).to_payload()
    cold = [memo.cache_info() for memo in memos]
    first = moment_calls.copy()
    assert first and sum(info.misses for info in cold) > 0
    p2 = run_verify(cfg).to_payload()
    warm = [memo.cache_info() for memo in memos]
    assert moment_calls == first + first
    assert [info.misses for info in warm] == [info.misses for info in cold]
    assert sum(info.hits for info in warm) > sum(info.hits for info in cold)
    p1.pop("generated_at"), p2.pop("generated_at")
    assert p1 == p2


def test_verify_takes_each_functions_sups_once_per_x(monkeypatch):
    # the gate and the identity's quadrature are stubbed out, so every f' call left is the bound step's:
    # three per (function, x) at most, however many (lam, alpha) points share that x
    calls = {}

    def counted(label, slope):
        calls[label] = 0

        def df(u):
            calls[label] += 1
            return slope * u

        return ScalarFunction(label, IntervalDomain(1.0, 2.0), lambda u: 0.5 * slope * u * u, df)

    fns = [counted("f", 1.0), counted("g", 3.0)]
    monkeypatch.setattr(harness, "_select_functions", lambda cfg: fns)
    monkeypatch.setattr(harness, "_gate", lambda cfg, f, domain: True)
    monkeypatch.setattr(
        harness,
        "_identity_values",
        lambda f, a, b, x, alphas, lambdas, tol: [(lam, alpha, 0.0, 0.0) for lam in lambdas for alpha in alphas],
    )
    cfg = SweepConfig(
        x_mode="grid", x_count=3, lambdas=(0.0, 0.5, 1.0), alphas=(0.5, 2.0), qs=(1.0, 2.0), variant="both"
    )
    rep = run_verify(cfg)
    assert {r["function"] for r in rep.records} == {"f", "g"}
    assert all(0 < n <= 3 * cfg.x_count for n in calls.values()), calls


def test_verify_summary_consistency():
    rep = run_verify(SweepConfig.from_dict(dict(SMALL, variant="both")))
    s = rep.summary
    assert s["cases"] == len(rep.records)
    assert s["identity_cases"] == len(rep.identity_records)
    assert s["violations"] == len(rep.violations)
    assert s["violations"] == sum(1 for r in rep.records if not r["holds"])
    assert s["identity_failures"] == sum(1 for r in rep.identity_records if not r["ok"])
    if rep.identity_records:
        assert s["max_identity_residual"] == max(r["residual_scaled"] for r in rep.identity_records)
    for variant, count in s["violations_by_variant"].items():
        assert count == sum(1 for r in rep.records if r["variant"] == variant and not r["holds"])
        slacks = [r["slack"] for r in rep.records if r["variant"] == variant]
        assert s["min_slack_by_variant"][variant] == min(slacks)
    records = rep.to_payload()["records"]
    for i in rep.violations:
        assert not records[i]["holds"]


def test_verify_t24_only_above_q_one():
    rep = run_verify(SweepConfig.from_dict(SMALL))
    qs_by_theorem = {}
    for r in rep.records:
        qs_by_theorem.setdefault(r["theorem"], set()).add(r["q"])
    assert qs_by_theorem["T22"] == {1.0, 2.0}
    assert qs_by_theorem["T24"] == {2.0}


def test_verify_identity_computed_once_per_point():
    rep = run_verify(SweepConfig.from_dict(SMALL))
    keys = {(r["function"], r["x"], r["lam"], r["alpha"]) for r in rep.identity_records}
    assert len(rep.identity_records) == len(keys)  # q never duplicates identity work
    assert len(rep.identity_records) == 2 * 1 * 2 * 1  # fns * x * lams * alphas


def test_hoisted_sweep_equals_the_public_functions_bit_for_bit():
    # x = a, an interior x and x = b on each interval; the plateau is kinked at u = 1,
    # inside [0.5, 3] (identity records only: the gate fails there) and at a = 1 of [1, 4]
    cfg = SweepConfig.from_dict(
        {
            "intervals": [[1.0, 2.0], [0.5, 3.0], [1.0, 4.0]],
            "x_mode": "grid",
            "x_count": 3,
            "lambdas": [0.0, 1.0 / 3.0, 1.0],
            "alphas": [0.5, 1.0, 2.5],
            "qs": [1.0, 1.5, 4.0],
            "functions": ["square", "xlnx", "piecewise_plateau"],
            "variant": "both",
        }
    )
    rep = run_verify(cfg)
    fns = {f.label: f for f in corpus()}
    # at tol_scale 1 the sweep's quadrature tolerances are the public functions' defaults
    for r in rep.identity_records:
        pt = ParamPoint(r["a"], r["b"], r["x"], r["lam"], r["alpha"])
        assert r["lhs"].hex() == identity_lhs(fns[r["function"]], pt).hex(), r
        assert r["rhs"].hex() == identity_rhs(fns[r["function"]], pt).hex(), r
    for r in rep.records:
        pt = ParamPoint(r["a"], r["b"], r["x"], r["lam"], r["alpha"], r["q"])
        want = bound(fns[r["function"]], pt, Theorem(r["theorem"]), Variant(r["variant"]))
        assert r["bound"].hex() == want.hex(), r
    # the grid reaches what the test claims to cover
    seen = {(r["function"], r["a"], r["b"], r["x"], r["q"], r["variant"]) for r in rep.records}
    for label, a, b in (("square", 1.0, 2.0), ("xlnx", 1.0, 2.0), ("piecewise_plateau", 1.0, 4.0)):
        for x in (a, (a + b) / 2.0, b):
            for q in cfg.qs:
                for variant in ("as_stated", "symmetric_corrected"):
                    assert (label, a, b, x, q, variant) in seen
    assert any(r["function"] == "piecewise_plateau" and r["a"] == 0.5 for r in rep.identity_records)
    # record order is part of the report bytes: each gated identity point in turn, then at that
    # point q in config order, then T22, T23, T24 (q > 1 only), then variants in variants_for order
    rows = [
        (q, theorem, variant)
        for q in cfg.qs
        for theorem in ("T22", "T23", "T24")
        if theorem != "T24" or q > 1.0
        for variant in ("as_stated", "symmetric_corrected")
    ]
    point = lambda r: (r["function"], r["a"], r["b"], r["x"], r["lam"], r["alpha"])
    pairs = {(r["function"], r["a"], r["b"]) for r in rep.records}
    gated = [point(r) for r in rep.identity_records if point(r)[:3] in pairs]
    records = list(rep.records)
    chunks = [records[i : i + len(rows)] for i in range(0, len(records), len(rows))]
    assert [point(chunk[0]) for chunk in chunks] == gated
    for chunk in chunks:
        assert {point(r) for r in chunk} == {point(chunk[0])}
        assert [(r["q"], r["theorem"], r["variant"]) for r in chunk] == rows


def test_verify_computes_lam_free_work_once(monkeypatch):
    calls = {"integrate_singular": 0, "c1": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(fracint, "integrate_singular", counting("integrate_singular", fracint.integrate_singular))
    monkeypatch.setattr(harness, "c1", counting("c1", c1))
    grid = {"x_mode": "grid", "x_count": 3, "alphas": [0.5, 2.0], "qs": [1.0, 2.0], "functions": ["expx"]}
    counts = []
    for lambdas in ([0.5], [0.0, 1.0 / 3.0, 0.5, 1.0]):
        calls.update(integrate_singular=0, c1=0)
        rep = run_verify(SweepConfig.from_dict({**grid, "lambdas": lambdas}))
        assert rep.summary["cases"] > 0
        counts.append(dict(calls))
    # the fractional part of the lhs does not depend on lam; c1 depends on (alpha, lam) alone
    assert counts[0]["integrate_singular"] == counts[1]["integrate_singular"] > 0
    assert counts[0]["c1"] == 1 * 2 and counts[1]["c1"] == 4 * 2


def test_verify_computes_rhs_integrals_once_where_they_vary(monkeypatch):
    # the rhs of each brace is pref (P - lam Q): P depends on (f, end, x, alpha), Q on (f, end, x)
    calls = {"_kernel_p": 0, "_kernel_q": 0}

    def counting(name):
        inner = getattr(bounds, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(bounds, name, counting(name))
    grid = {"x_mode": "grid", "x_count": 3, "qs": [1.0], "functions": ["expx"]}
    counts = {}
    for lambdas, alphas in (([0.5], [1.0]), ([0.0, 1.0 / 3.0, 0.5, 1.0], [1.0]), ([0.5], [0.5, 1.0, 2.0])):
        calls.update(_kernel_p=0, _kernel_q=0)
        rep = run_verify(SweepConfig.from_dict({**grid, "lambdas": lambdas, "alphas": alphas}))
        assert len(rep.identity_records) == 3 * len(lambdas) * len(alphas)
        counts[len(lambdas), len(alphas)] = dict(calls)
    # x = a and x = b have one brace each, the midpoint two: 4 braces per (f, interval)
    assert counts[1, 1] == counts[4, 1] == {"_kernel_p": 4, "_kernel_q": 4}
    assert counts[1, 3] == {"_kernel_p": 3 * 4, "_kernel_q": 4}


def test_quadrature_failure_names_its_case(monkeypatch):
    # Q depends on neither lam nor alpha, so its failure names (function, a, b, x) alone; P's names its alpha too
    cfg = SweepConfig.from_dict({"lambdas": [0.5], "alphas": [0.5, 2.0], "qs": [1.0], "functions": ["expx"]})
    case = "function=expx, a=1.0, b=2.0, x=1.3333333333333333"

    def failing(*args):
        raise QuadratureError("no convergence")

    monkeypatch.setattr(bounds, "_kernel_q", failing)
    with pytest.raises(QuadratureError) as info:
        run_verify(cfg)
    assert str(info.value) == f"no convergence [case: {case}]"

    monkeypatch.undo()
    monkeypatch.setattr(bounds, "_kernel_p", lambda f, end, x, alpha, tol: failing() if alpha == 2.0 else 0.0)
    with pytest.raises(QuadratureError) as info:
        run_verify(cfg)
    assert str(info.value) == f"no convergence [case: {case}, alpha=2.0]"

    # an arithmetic failure names its case too: Gamma(200) overflows inside the lhs
    monkeypatch.undo()
    cfg = SweepConfig.from_dict({"lambdas": [0.0], "alphas": [200.0], "qs": [1.0], "functions": ["identity"]})
    with pytest.raises(OverflowError) as info:
        run_verify(cfg)
    assert str(info.value) == "math range error [case: function=identity, a=1.0, b=2.0, x=1.3333333333333333, alpha=200.0]"


def test_nonfinite_kernel_moments_fail_loudly():
    # 2F1(2000, b; 3; 0.5) is past the double range: a bound of inf would hold, and is no JSON number
    for name, moment, b in (("c2", c2, 2.0), ("c3", c3, 1.0)):
        point = f"{name}(alpha=1, lam=0, q=1000, r=0.5) overflows double precision: hyp2f1(a=2000.0, b={b}, c=3.0"
        with pytest.raises(OverflowError, match=re.escape(point)):
            moment(1, 0, 1000, 0.5)


def test_nonfinite_interior_lam_c3_fails_loudly():
    # G(z1) and E(z1) are finite (their difference near 1.6e305), but the kink rescaling s^(-2q), with
    # s = r + lam^(1/alpha) (1-r) just above r = 0.1, is past the double range
    with pytest.raises(OverflowError, match=r"c3\(alpha=0.1, lam=0.45, q=154.5, r=0.1\) overflows double precision: \("):
        c3(0.1, 0.45, 154.5, 0.1)


def test_verify_hypothesis_gate_skips_bounds():
    # on [0.5, 3] the plateau function's |f'|^q has split sublevel sets,
    # so only identity records appear; each skipped (point, q) is counted
    cfg = SweepConfig.from_dict(
        {"intervals": [[0.5, 3.0]], "lambdas": [0.5], "alphas": [1.0], "qs": [1.0, 2.0]}
    )
    rep = run_verify(cfg)
    assert rep.summary["cases"] == 0
    assert rep.summary["bound_skips"] == 2
    assert rep.summary["identity_cases"] == 1
    assert rep.identity_records[0]["ok"]


def test_verify_checks_hypothesis_once_per_function_and_interval(monkeypatch):
    # the gate's binding and the one validate_corpus uses: the run re-proves no corpus flag
    checked, revalidated = [], []

    def counting(calls):
        def check(f, d=None, n=20, seed=0):
            calls.append((f.label, d.lo, d.hi))
            return check_harmonically_quasiconvex(f, d, n=n, seed=seed)

        return check

    monkeypatch.setattr(harness, "check_harmonically_quasiconvex", counting(checked))
    monkeypatch.setattr(harmonic, "check_harmonically_quasiconvex", counting(revalidated))
    cfg = SweepConfig.from_dict(
        {
            "intervals": [[1.0, 2.0], [0.5, 3.0]],
            "lambdas": [0.5],
            "alphas": [1.0],
            "qs": [1.0, 2.0, 4.0],
            "functions": ["identity", "piecewise_plateau"],
        }
    )
    rep = run_verify(cfg)
    # identity's domain [1, 2] does not enclose [0.5, 3]: three eligible pairs
    assert sorted(checked) == [
        ("|identity'|^1", 1.0, 2.0),
        ("|piecewise_plateau'|^1", 0.5, 3.0),
        ("|piecewise_plateau'|^1", 1.0, 2.0),
    ]
    assert revalidated == []
    # the plateau passes on [1, 2] (|f'| is monotone there) and fails on [0.5, 3]
    assert rep.summary["bound_skips"] == 3
    assert rep.summary["cases"] == 2 * (2 + 3 + 3)


_LHS_NEAR_END = (
    "the lhs integrates over [1/x, 1/a] and [1/b, 1/x], whose widths come from rounded reciprocals, "
    "a relative error of about eps*b/(b - x) next to x = b (eps*a/(x - a) next to x = a)"
)


@pytest.mark.xfail(reason=_LHS_NEAR_END)
def test_verify_identity_holds_next_to_the_right_endpoint():
    # hqfi verify --x-mode explicit --x-values 1.999999999998 --alphas 0.05,0.5,1,5: 28 of the
    # 144 identity records fail, at alpha = 0.05, and the worst residual_scaled is 8.9e-6
    cfg = SweepConfig.from_dict({"x_mode": "explicit", "x_values": [1.999999999998], "alphas": [0.05, 0.5, 1.0, 5.0]})
    records = run_verify(cfg).identity_records
    assert (len(records), [r for r in records if not r["ok"]]) == (144, [])


@pytest.mark.xfail(reason=_LHS_NEAR_END)
@pytest.mark.parametrize("x", [0.3000000000003, 0.699999999999])
def test_verify_identity_holds_next_to_either_endpoint_of_the_plateau(x):
    # only piecewise_plateau covers [0.3, 0.7]; at each x, 4 of the 16 records fail, all at alpha = 0.05,
    # with residual_scaled 9.9e-8 next to a and 2.6e-7 next to b
    cfg = SweepConfig.from_dict(
        {
            "intervals": [[0.3, 0.7]],
            "functions": ["piecewise_plateau"],
            "x_mode": "explicit",
            "x_values": [x],
            "alphas": [0.05, 0.5, 1.0, 5.0],
        }
    )
    records = run_verify(cfg).identity_records
    assert (len(records), [r for r in records if not r["ok"]]) == (16, [])


_GATE_BLIND = (
    "ok gates on |lhs - rhs| / (1 + |lhs|) <= 1e-8, which sees no 1e-10 quadrature bias and gives the "
    "roundoff of terms that cancel no room; the gate is to scale by the terms (ROADMAP item 13)"
)


@pytest.mark.xfail(reason=_GATE_BLIND)
def test_verify_identity_gate_sees_a_quadrature_bias(monkeypatch):
    # every GK15 panel returns its value x (1 + 1e-10): today no identity record of the default grid
    # fails, and the worst residual_scaled is 4.4e-10 against the gate of 1e-8
    gk15 = quad.gk15

    def biased(f, lo, hi):
        value, err = gk15(f, lo, hi)
        return value * (1.0 + 1e-10), err

    monkeypatch.setattr(quad, "gk15", biased)
    records = run_verify(SweepConfig.from_dict({"variant": "both"})).identity_records
    assert len(records) == 108
    assert any(not r["ok"] for r in records)


@pytest.mark.xfail(reason=_GATE_BLIND)
def test_verify_identity_holds_where_large_terms_cancel():
    # the sweep_wide benchmark grid at alpha = 10 on [0.1, 4]: five records fail today, at x = 0.1
    # (lam = 0) and x = 0.5875 (every lam), with residual_scaled up to 4.39e-6
    cfg = SweepConfig.from_dict(
        {
            "intervals": [[0.1, 4.0]],
            "functions": ["piecewise_plateau"],
            "x_mode": "grid",
            "x_count": 9,
            "alphas": [10.0],
            "variant": "symmetric_corrected",
        }
    )
    records = run_verify(cfg).identity_records
    assert (len(records), [r for r in records if not r["ok"]]) == (36, [])


# f(u) = u on [1, 2] at x in {a, b} and lam in {0, 1}, where corrected T22 at q = 1 and T23 at every q
# hold with equality (ROADMAP item 14): 60 bound records, no violation
_WITNESS_GRID = ["verify", "--interval", "1:2", "--functions", "identity", "--x-mode", "grid", "--x-count", "2"]
_WITNESS_GRID += ["--lambdas", "0,1", "--alphas", "0.5,1,2", "--qs", "1,2", "--variant", "corrected"]


def _witness_run(monkeypatch, tmp_path, name, factor) -> tuple[int, dict]:
    """The exit code and report of the witness grid with `bounds.<name>` scaled by `factor`."""
    out = tmp_path / "r.json"
    assert main([*_WITNESS_GRID, "--out", str(out)]) == 0
    inner = getattr(bounds, name)
    monkeypatch.setattr(bounds, name, lambda *args: inner(*args) * factor)
    code = main([*_WITNESS_GRID, "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_witness_grid_flags_a_deflated_moment(monkeypatch, tmp_path):
    code, report = _witness_run(monkeypatch, tmp_path, "c2", 1.0 - 1e-6)
    assert (code, len(report["records"]), len(report["violations"])) == (1, 60, 18)


@pytest.mark.xfail(reason="a bound check is one-sided: an inflated moment only loosens the bound (ROADMAP item 14)")
@pytest.mark.parametrize("name", ["c2", "c3"])
def test_witness_grid_flags_an_inflated_moment(monkeypatch, tmp_path, name):
    # today the run still exits 0 with no violation
    code, report = _witness_run(monkeypatch, tmp_path, name, 1.0 + 1e-6)
    assert len(report["records"]) == 60
    assert code != 0


# The default grid with both variants and the two sweep grids of the benchmark, written out here,
# each with its count of (T23, T22) and (T23, T24) pairs
_DOMINATION_GRIDS = {
    "default": ({"variant": "both"}, 324),
    "dense": (
        {
            "intervals": [[1.0, 2.0]],
            "x_mode": "grid",
            "x_count": 5,
            "alphas": [0.1, 0.5, 1.0, 2.0, 5.0],
            "qs": [1.0, 1.5, 2.0, 4.0],
            "functions": "all",
            "variant": "both",
        },
        6300,
    ),
    "wide": (
        {
            "intervals": [[0.1, 4.0], [0.5, 4.0], [1.0, 4.0]],
            "x_mode": "grid",
            "x_count": 9,
            "alphas": [0.05, 0.25, 1.0, 4.0, 10.0],
            "qs": [1.0, 2.0, 8.0],
            "functions": ["piecewise_plateau"],
            "variant": "symmetric_corrected",
        },
        900,
    ),
}


@pytest.mark.parametrize("grid, comparisons", _DOMINATION_GRIDS.values(), ids=_DOMINATION_GRIDS)
def test_corrected_t23_is_the_tightest_corrected_family(grid, comparisons):
    # Hoelder's inequality with equal sup factors: at every group and q, corrected T23 <= corrected T22
    # and, at q > 1, corrected T23 <= corrected T24 (ROADMAP item 20, "Domination")
    bounds_at = {}
    for r in run_verify(SweepConfig.from_dict(grid)).records:
        if r["variant"] == "symmetric_corrected":
            key = tuple(r[k] for k in ("function", "a", "b", "x", "lam", "alpha", "q"))
            bounds_at.setdefault(key, {})[r["theorem"]] = r["bound"]
    pairs = [
        (key, theorem, by["T23"], value)
        for key, by in bounds_at.items()
        for theorem, value in by.items()
        if theorem != "T23"
    ]
    assert len(pairs) == comparisons
    above = [(key, theorem, t23, other) for key, theorem, t23, other in pairs if t23 > other]
    assert not above, above[:3]


def test_verify_explicit_x_outside_interval():
    cfg = SweepConfig.from_dict(dict(SMALL, x_mode="explicit", x_values=[1.5, 2.5]))
    with pytest.raises(ValueError, match="outside interval"):
        run_verify(cfg)


def test_verify_unknown_function():
    with pytest.raises(ValueError, match="unknown corpus functions"):
        run_verify(SweepConfig.from_dict({"functions": ["nope"]}))


def test_verify_no_function_covers_interval():
    cfg = SweepConfig.from_dict({"intervals": [[5.0, 6.0]], "functions": ["identity"]})
    with pytest.raises(ValueError, match="covers interval"):
        run_verify(cfg)


def test_report_serialization_shapes():
    rep = run_verify(SweepConfig.from_dict(SMALL))
    payload = json.loads(rep.to_json())
    assert payload["version"] == "0.2.0"
    assert set(payload) == {
        "version",
        "generated_at",
        "config",
        "records",
        "identity_records",
        "violations",
        "summary",
    }
    csv_text = rep.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("kind,function,a,b,x,lam,alpha,q,theorem,variant")
    assert len(lines) == 1 + len(rep.identity_records) + len(rep.records)
    assert rep.to_json().endswith("\n")


def _assert_reference_json(text: str, payload: dict) -> None:
    """Fail unless text is the indent=2 encoding of payload, naming the first differing character."""
    want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if text != want:
        # pytest's own diff of two long strings takes minutes
        i = next((i for i, (x, y) in enumerate(zip(text, want)) if x != y), min(len(text), len(want)))
        pytest.fail(f"differs at char {i}: {text[max(i - 40, 0):i + 40]!r} != {want[max(i - 40, 0):i + 40]!r}")


# strings that need escapes: quotes, backslashes, control and non-ASCII characters
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600'), st.characters()), max_size=8)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072e-308, 1e308, -1e308]),
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT)
_KEYS = st.one_of(st.sampled_from(["a", "lhs", "B", "\xe9", 'q"', "\\", "\n", "\U0001f600"]), _TEXT)


class _Small(enum.IntEnum):
    ONE = 1


class _Text(str):
    pass


# subclasses of JSON scalars, which the encoders write as their base type
_SUBCLASSED = st.sampled_from([_Small.ONE, _Text("a"), _Text('"\n')])
_VALUES = _SCALARS | _SUBCLASSED
# Keys that are no str, written "1", "1.0", "true", "-0.0", "Infinity" and "null".  sort_keys
# compares the keys of a dict, so the numbers share a dict and None keeps to its own.
_ODD_KEYED = st.dictionaries(st.sampled_from([1, 1.0, True, -0.0, math.inf]), _VALUES, max_size=3) | st.dictionaries(
    st.none(), _VALUES, max_size=1
)
_TREE = st.recursive(_VALUES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=6)
_NESTED = st.dictionaries(_KEYS, _TREE, max_size=4)
# a list item: a flat record, a record with non-str keys or nested values, a nested list or a bare scalar
_ITEMS = st.one_of(st.dictionaries(_KEYS, _VALUES, max_size=6), _ODD_KEYED, _NESTED, _TREE)
# Records drawn from one small pool of objects: equal values that are written apart (0.0 and -0.0;
# 1, 1.0 and True), and the same NaN and inf objects under one key and under another.
_NAN = float("nan")  # a second NaN object beside math.nan
_POOL = (0.0, -0.0, 1, 1.0, True, False, None, math.nan, _NAN, math.inf, -math.inf, 2.5, "", "a")
_POOLED_RECORDS = st.lists(
    st.dictionaries(st.sampled_from(["a", "b", "lhs"]), st.sampled_from(_POOL), max_size=3), min_size=2, max_size=8
)
_RECORDS = st.one_of(st.lists(_ITEMS, max_size=4), _POOLED_RECORDS)


def _with_violations(violations) -> CampaignReport:
    return CampaignReport(
        version="0", generated_at="", config={}, records=[], identity_records=[], violations=violations, summary={}
    )


@settings(max_examples=100, deadline=None)
@given(
    st.builds(
        CampaignReport,
        version=_TEXT,
        generated_at=_TEXT,
        config=_NESTED,
        records=_RECORDS,
        identity_records=_RECORDS,
        violations=st.one_of(st.lists(st.integers(), max_size=4), _RECORDS),
        summary=_NESTED,
    )
)
@example(
    CampaignReport(
        version="0",
        generated_at="",
        config={},
        # each value after the first record is a new object equal to the one before it under that key
        records=[{"a": 0.0, "b": 1}, {"a": -0.0, "b": 1.0}, {"a": 0.0, "b": True}, {"b": 1, "lhs": math.nan}],
        identity_records=[{"lhs": math.nan}, {"lhs": _NAN, "a": math.inf}, {"a": math.inf}, {"a": -math.inf}, {}],
        # keys too can be equal and written apart: "1", "1.0", "true"
        violations=[{1: 0}, {1.0: 0}, {True: 0}, {-0.0: 0}, {0.0: 0}],
        summary={},
    )
)
@example(
    CampaignReport(
        version="0",
        generated_at="",
        config={},
        # nested values, and a value that is the very object the record before held under "a"
        records=[{"a": 0.25}, {"a": 1.0, "nested": [1.0]}, {"nested": {"b": 1}}, {"a": 0.25, "nested": [1.0]}],
        identity_records=[[1.0], ("x",), {"lhs": 0.5}, {"n": _Small.ONE, "s": _Text("a")}, _Small.ONE, _Text("b")],
        violations=[3, [3], {None: 1}, {math.inf: -0.0, 1: 2}],
        summary={},
    )
)
# violations of ints are written 1,024 to a chunk: lengths at the edges of a slice, and lists
# that are left to indent=2 because they hold a bool, a float, or are a tuple
@example(_with_violations([]))
@example(_with_violations([-1]))
@example(_with_violations(list(range(-1, 1022))))
@example(_with_violations(list(range(-1, 1023))))
@example(_with_violations(list(range(-1, 1024))))
@example(_with_violations(list(range(-1, 2048))))
@example(_with_violations([0, True, 2]))
@example(_with_violations([0, 1.5, 2]))
@example(_with_violations((0, 1, 2)))
def test_to_json_matches_reference_encoder(report):
    _assert_reference_json(report.to_json(), report.to_payload())
    assert "".join(report.json_chunks()) == report.to_json()  # what the CLI writes is what to_json returns


# x at both endpoints and the midpoint of [1, 2]; piecewise_plateau fails the gate on [0.5, 3]
# (square does not cover it), so that pair has identity records only
_ENDPOINT_SWEEP = {
    "intervals": [[1.0, 2.0], [0.5, 3.0]],
    "x_mode": "grid",
    "x_count": 3,
    "lambdas": [0.0, 0.5],
    "alphas": [1.0],
    "qs": [1.0, 2.0],
    "functions": ["square", "piecewise_plateau"],
}


def test_to_json_matches_reference_encoder_on_a_sweep():
    # the grouped records write their own text; json.dumps encodes the dicts they read as,
    # with both variants and with one alone
    for variant in ("both", "as_stated"):
        rep = run_verify(SweepConfig.from_dict(dict(_ENDPOINT_SWEEP, variant=variant)))
        assert rep.records and rep.identity_records and rep.violations, variant
        assert rep.summary["bound_skips"] > 0, variant
        assert {r["x"] for r in rep.records} == {1.0, 1.5, 2.0}, variant
        assert {r["variant"] for r in rep.records} == {v.value for v in variants_for(variant)}
        _assert_reference_json(rep.to_json(), rep.to_payload())


def test_csv_cells_are_the_record_values():
    rep = run_verify(SweepConfig.from_dict(dict(_ENDPOINT_SWEEP, variant="both")))
    text = rep.to_csv()
    assert "".join(rep.csv_chunks()) == text
    header, *rows = csv.reader(text.splitlines())
    assert tuple(header) == harness._CSV_COLUMNS
    records = [("identity", r) for r in rep.identity_records] + [("bound", r) for r in rep.records]
    assert len(rows) == len(records) and {kind for kind, _ in records} == {"identity", "bound"}
    for row, (kind, rec) in zip(rows, records):
        assert len(row) == len(header) and set(rec) < set(header)
        assert row[0] == kind
        for col, cell in zip(header[1:], row[1:]):
            value = rec.get(col)
            if col not in rec:
                assert cell == "", (kind, col)
            elif type(value) is bool:
                assert cell == ("true" if value else "false"), (kind, col)
            elif type(value) is float:
                assert cell == repr(value), (kind, col)
            else:
                assert type(value) is str and cell == value, (kind, col)


def _rebuilt_records(cfg: SweepConfig, rep: CampaignReport) -> list[dict]:
    """The bound records of a sweep whose pairs all pass the gate, field by field from the public functions."""
    fns = {f.label: f for f in corpus()}
    out = []
    for ident in rep.identity_records:
        lhs_abs = abs(ident["lhs"])
        for q in cfg.qs:
            for theorem in Theorem:
                if theorem is Theorem.T24 and q <= 1.0:
                    continue
                for variant in variants_for(cfg.variant):
                    pt = ParamPoint(ident["a"], ident["b"], ident["x"], ident["lam"], ident["alpha"], q)
                    value = bound(fns[ident["function"]], pt, theorem, variant)
                    slack = value - lhs_abs
                    out.append(
                        {
                            "function": ident["function"],
                            "a": ident["a"],
                            "b": ident["b"],
                            "x": ident["x"],
                            "lam": ident["lam"],
                            "alpha": ident["alpha"],
                            "q": q,
                            "theorem": theorem.value,
                            "variant": variant.value,
                            "lhs_abs": lhs_abs,
                            "bound": value,
                            "slack": slack,
                            "holds": slack >= -cfg.tol_slack * cfg.tol_scale * (1.0 + value),
                            "identity_residual": ident["residual_scaled"],
                        }
                    )
    return out


def test_bound_records_read_as_the_list_they_replace():
    cfg = SweepConfig.from_dict(dict(SMALL, variant="both"))
    rep = run_verify(cfg)
    view, want = rep.records, _rebuilt_records(cfg, rep)
    n = len(want)
    assert n == len(view) == rep.summary["cases"] and n > 20
    # a sized iterable, no list: to_payload gives the list
    assert type(view) is not list and not hasattr(view, "append")
    assert list(view) == list(view) == want  # each iteration starts over
    assert [list(r) for r in view] == [list(r) for r in want]  # key order
    with pytest.raises(TypeError):
        view[0]
    # each read is a fresh dict: changing it changes nothing in the view
    first = next(iter(view))
    first["bound"] = -1.0
    assert next(iter(view)) is not first and next(iter(view)) == want[0]
    payload = rep.to_payload()
    assert type(payload["records"]) is list and payload["records"] == want
    for twin in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
        assert type(twin.records) is type(view) and list(twin.records) == want
        assert twin.to_json() == rep.to_json()


def test_bound_records_with_non_finite_values_write_what_the_encoder_writes():
    # a bound of nan or inf (or a non-finite |lhs|) is no float repr in JSON: NaN, Infinity, -Infinity
    rows = bounds._rows((1.0, 2.0), variants_for("both"))
    ident = {"function": "f", "a": 1.0, "b": 2.0, "x": 1.5, "lam": 0.5, "alpha": 1.0, "residual_scaled": 0.0}
    groups = [
        (ident, 0.25, [0.5 + i for i in range(len(rows))]),
        (ident, 0.25, [math.nan] + [1e300] * (len(rows) - 2) + [math.inf]),
        (dict(ident, x=2.0), math.inf, [1.0] * len(rows)),
        (dict(ident, x=1.0), 0.5, [1e308] * len(rows)),  # finite slacks whose sum is not
        # equal as dict keys, apart in JSON: a text made once per value or coordinate must keep them apart
        (dict(ident, lam=0.0), 0.0, [0.0, -0.0] * (len(rows) // 2)),
        (dict(ident, lam=-0.0, alpha=1), 0.0, [-0.0, 0.0] * (len(rows) // 2)),
        (dict(ident, lam=0.0), 0.25, [math.inf, math.nan, float("nan"), -math.inf] * (len(rows) // 4)),
        # Consecutive groups whose function, a, b or x are equal to the group before but other objects:
        # equal texts, or equal values written apart (-0.0 after 0.0, 2 and True after 2.0 and 1.0).
        (dict(ident, x=float("2")), 0.5, [0.75] * len(rows)),
        (dict(ident, x=float("2")), 0.5, [0.75] * len(rows)),
        (dict(ident, x=2), 0.5, [0.75] * len(rows)),
        (dict(ident, x=2, a=-0.0), 0.5, [0.75] * len(rows)),
        (dict(ident, x=2, a=0.0), 0.5, [0.75] * len(rows)),
        (dict(ident, x=2, a=0.0, b=True), 0.5, [0.75] * len(rows)),
        (dict(ident, x=2, a=0.0, b=1.0, function="fn"), 0.5, [0.75] * len(rows)),
        (dict(ident, x=2, a=0.0, b=1.0, function="".join(("f", "n"))), 0.5, [0.75] * len(rows)),
    ]
    view = harness._BoundRecords(rows, groups, 1e-9)
    rep = CampaignReport(version="0", generated_at="", config={}, records=view, identity_records=[], violations=[], summary={})
    _assert_reference_json(rep.to_json(), rep.to_payload())
    assert "NaN" in rep.to_json() and "-Infinity" in rep.to_json()


def _with_identity_records(identity_records: list) -> CampaignReport:
    return CampaignReport(
        version="0", generated_at="", config={}, records=[], identity_records=identity_records, violations=[], summary={}
    )


@pytest.fixture
def templated(monkeypatch):
    """The record lists `CampaignReport.json_chunks` hands to the identity template `_record_chunks`, in order."""
    seen = []
    inner = harness._record_chunks
    monkeypatch.setattr(harness, "_record_chunks", lambda records: seen.append(records) or inner(records))
    return seen


def test_identity_records_out_of_their_run_order_write_what_the_encoder_writes(templated):
    # The identity writer makes the texts of function, a, b and x once per stretch of records holding the
    # same four objects.  Shuffled, sliced, copied or re-parsed records break those stretches, and after
    # json.loads every record holds its own objects, equal to those of the record before.
    identity = run_verify(SweepConfig.from_dict(dict(_ENDPOINT_SWEEP, variant="both"))).identity_records
    shuffled = list(identity)
    random.Random(0).shuffle(shuffled)
    lists = [shuffled, identity[1::3], identity[7:], copy.deepcopy(identity), json.loads(json.dumps(identity))]
    for records in lists:
        _assert_reference_json(_with_identity_records(records).to_json(), _with_identity_records(records).to_payload())
    assert templated == lists  # each list took the template whole


def test_identity_records_at_lam_minus_zero_write_what_the_encoder_writes():
    # -0.0 equals 0.0 as a dict key, but its text is its own: lam's text is made once per run
    rep = run_verify(SweepConfig.from_dict(dict(_ENDPOINT_SWEEP, lambdas=[-0.0, 0.5, 1.0], variant="both")))
    text = rep.to_json()
    _assert_reference_json(text, rep.to_payload())
    assert '"lam": -0.0,' in text and '"lam": 0.0,' not in text


def test_hand_built_identity_records_write_what_the_encoder_writes(templated):
    # records with exactly the keys of an identity record take the identity writer, whatever their scalars
    base = {
        "function": "f", "a": 1.0, "b": 2.0, "x": 1.5, "lam": 0.5, "alpha": 1.0,
        "lhs": 0.25, "rhs": 0.25, "residual": 0.0, "residual_scaled": 0.0, "ok": True,
    }
    records = [
        base,
        dict(base, lhs=math.nan, rhs=math.inf, residual=-math.inf, residual_scaled=float("nan"), ok=False),
        dict(base, lhs=1e308, rhs=1e308, residual=-1e308, residual_scaled=1e308),  # finite values, a sum that is not
        dict(base, lhs=1, rhs=True, residual=None, residual_scaled="0", ok=None),
        dict(base, ok=1),
        dict(base, ok=0.0),
        # lam and alpha: texts made once per run, for values that are equal as dict keys and written apart
        dict(base, lam=0.0, alpha=1),
        dict(base, lam=-0.0, alpha=True),
        dict(base, lam=False, alpha=1.0),
        dict(base, lam=0, alpha=math.inf),
        # function, a, b and x: the same objects, then equal objects written apart, then other texts
        dict(base, a=0.0),
        dict(base, a=-0.0),
        dict(base, a=-0.0, b=2),
        dict(base, a=-0.0, b=2, x=None),
        dict(base, a=-0.0, b=2, x=None, function='f"\n\xe9\U0001f600'),
        dict(base, a=-0.0, b=2, x=math.nan, function=None),
        dict(base, a=-0.0, b=2, x=float("nan"), function=None),
    ]
    rep = _with_identity_records(records)
    text = rep.to_json()
    _assert_reference_json(text, rep.to_payload())
    assert "NaN" in text and "-Infinity" in text and '"a": -0.0,' in text
    assert templated == [records]


def test_a_list_with_a_record_of_another_shape_takes_the_reference_path(templated):
    # one record with a key more or less than an identity record, or a value that is no exact JSON
    # scalar, sends its whole list to indent=2; a list of identity records alone takes the template
    ident = {
        "function": "f", "a": 1.0, "b": 2.0, "x": 1.5, "lam": 0.5, "alpha": 1.0,
        "lhs": 0.25, "rhs": 0.25, "residual": 0.0, "residual_scaled": 0.0, "ok": True,
    }
    missing = {key: value for key, value in ident.items() if key != "ok"}
    others = [dict(ident, extra=math.nan), missing, {"a": 0.5}, dict(ident, x=[1.5]), dict(ident, lam=_Small.ONE)]
    for other in others:
        for records in ([ident, other], [other, ident, dict(ident, a=-0.0)], [other]):
            rep = _with_identity_records(records)
            _assert_reference_json(rep.to_json(), rep.to_payload())
    assert templated == []
    records = [ident, dict(ident, a=-0.0), ident]
    _assert_reference_json(_with_identity_records(records).to_json(), _with_identity_records(records).to_payload())
    assert templated == [records]


def test_every_reader_of_a_bound_agrees_at_the_slack_tolerance(monkeypatch):
    # tol = 2^-30, and a bound holds when slack >= -tol * (1 + bound).  At |lhs| = 1 + 2^-29 a bound of 1
    # has slack exactly -tol * 2 and holds; the float below it has slack -(2^-29 + 2^-53) and fails.  At
    # |lhs| = 3 + 2^-28 a bound of 3 has slack exactly -tol * 4 and holds; the float below it fails.
    # Both edges lie past -tol, so the allowance is the bound's, not a constant.  Records, JSON, CSV,
    # violations, summary and evaluate_bound all decide through bounds._verdicts, so they agree there.
    tol = 2.0**-30
    edges = []  # (|lhs|, the bound at the edge, the float below it)
    for value, lhs_abs in ((1.0, 1.0 + 2.0**-29), (3.0, 3.0 + 2.0**-28)):
        below = math.nextafter(value, 0.0)
        assert value - lhs_abs == -tol * (1.0 + value) < -tol
        assert below - lhs_abs < -tol * (1.0 + below)
        edges.append((lhs_abs, value, below))
    rows = bounds._rows((1.0,), variants_for("both"))  # T22 and T23, each as_stated then corrected
    assert [row.variant for row in rows] == ["as_stated", "symmetric_corrected"] * 2
    ident = {"function": "f", "a": 1.0, "b": 2.0, "x": 1.5, "lam": 0.5, "alpha": 1.0, "residual_scaled": 0.0}
    (lhs_1, at_1, below_1), (lhs_3, at_3, below_3) = edges
    groups = [(ident, lhs_1, [at_1, below_1, at_1, at_1]), (dict(ident, x=2.0), lhs_3, [below_3, at_3, at_3, below_3])]
    want_holds = [True, False, True, True, False, True, True, False]
    want_slacks = [value - lhs_abs for _, lhs_abs, values in groups for value in values]
    view = harness._BoundRecords(rows, groups, tol)
    violations, summary = harness._summary(view, [], 0)
    rep = CampaignReport(
        version="0", generated_at="", config={}, records=view, identity_records=[], violations=violations, summary=summary
    )

    records = list(view)
    assert [r["holds"] for r in records] == want_holds
    assert [r["slack"] for r in records] == want_slacks
    text = rep.to_json()
    _assert_reference_json(text, rep.to_payload())
    parsed = json.loads(text)
    assert [(r["slack"], r["holds"]) for r in parsed["records"]] == list(zip(want_slacks, want_holds))
    bound_rows = [row for row in csv.DictReader(rep.to_csv().splitlines()) if row["kind"] == "bound"]
    assert [(float(r["slack"]), r["holds"]) for r in bound_rows] == [
        (slack, "true" if ok else "false") for slack, ok in zip(want_slacks, want_holds)
    ]
    assert violations == parsed["violations"] == [1, 4, 7]
    assert summary["violations"] == 3 and summary["cases"] == 8
    assert summary["violations_by_variant"] == {"as_stated": 1, "symmetric_corrected": 2}
    assert summary["min_slack_by_variant"] == {"as_stated": below_3 - lhs_3, "symmetric_corrected": below_3 - lhs_3}

    # evaluate_bound on the same numbers at the same tolerance
    monkeypatch.setattr(bounds, "_SLACK_TOL", tol)
    f = corpus()[0]
    p = ParamPoint(1.0, 2.0, 1.5, 0.5, 1.0)
    for lhs_abs, at, below in edges:
        monkeypatch.setattr(bounds, "identity_lhs", lambda f, p, lhs_abs=lhs_abs: -lhs_abs)
        for value, ok in ((at, True), (below, False)):
            monkeypatch.setattr(bounds, "bound", lambda f, p, theorem, variant, value=value: value)
            report = bounds.evaluate_bound(f, p, Theorem.T22)
            assert (report.lhs_abs, report.bound, report.slack, report.holds) == (lhs_abs, value, value - lhs_abs, ok)


@pytest.mark.parametrize("value", [0, -7, 10**30, True, False, None, 2.5, -0.0, math.nan, -math.inf, "\xe9\n\""])
def test_scalar_text_is_the_encoders_text(value):
    assert harness._scalar_text(value) == json.dumps(value)


_GATED_OUT = ["--interval", "0.5:3", "--functions", "piecewise_plateau", "--alphas", "1", "--qs", "1", "--lambdas", "0"]


def test_verify_with_every_pair_gated_out_writes_no_bound_records(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["verify", *_GATED_OUT, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert '\n  "records": [],\n' in text and report["violations"] == []
    assert report["identity_records"] and report["summary"]["bound_skips"] > 0 and report["summary"]["cases"] == 0
    # streamed to stdout, the same report
    assert main(["verify", *_GATED_OUT]) == 0
    streamed = json.loads(capsys.readouterr().out)
    assert {k: v for k, v in streamed.items() if k != "generated_at"} == {
        k: v for k, v in report.items() if k != "generated_at"
    }
    csv_out = tmp_path / "r.csv"
    assert main(["verify", *_GATED_OUT, "--format", "csv", "--out", str(csv_out)]) == 0
    lines = csv_out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + len(report["identity_records"])
    assert all(line.startswith("identity,") for line in lines[1:])


# --- run_constants ---


def test_constants_structure_and_goldens():
    out = run_constants(1.0, 0.0, 1.0, 0.5)
    assert set(out["results"]) == {"c1", "c2", "c3"}
    c2_block = out["results"]["c2"]
    # closed form 4(1 - ln 2) = 1.2274112777602189
    assert c2_block["closed"] == pytest.approx(4.0 * (1.0 - math.log(2.0)), rel=1e-12)
    assert c2_block["rel_delta"] <= 1e-9
    for block in out["results"].values():
        assert block["abs_delta"] == pytest.approx(abs(block["closed"] - block["oracle"]), abs=1e-300)


def test_constants_which_selector():
    assert set(run_constants(1.0, 0.3, 2.0, 0.7, "c3")["results"]) == {"c3"}
    with pytest.raises(ValueError):
        run_constants(1.0, 0.3, 2.0, 0.7, "c4")
    with pytest.raises(ValueError):
        run_constants(-1.0, 0.3, 2.0, 0.7)
    # q and r are validated even when only c1, which uses neither, is asked for
    with pytest.raises(ValueError, match="q >= 1"):
        run_constants(1.0, 0.5, 0.2, 0.7, "c1")
    with pytest.raises(ValueError, match="r in"):
        run_constants(1.0, 0.5, 2.0, -3.0, "c1")


def test_constants_c3_collapse_at_r_one():
    out = run_constants(1.7, 0.4, 2.0, 1.0)
    assert out["results"]["c2"]["closed"] == pytest.approx(out["results"]["c3"]["closed"], rel=1e-11)


# --- run_checkfn and the expression grammar ---


def test_checkfn_corpus_lookup():
    out = run_checkfn("piecewise_plateau", 0.1, 4.0, 30, "convex")
    assert out["status"] == "violated"
    assert len(out["witness"]) == 3
    assert run_checkfn("piecewise_plateau", 0.1, 4.0, 30, "quasi")["status"] == "no_violation_found"


def test_checkfn_looks_a_label_up_without_checking_the_corpus(monkeypatch):
    # checkfn runs its one requested check; re-proving the corpus flags, as validate_corpus
    # does through the harmonic module's own binding of the checker, is no part of it
    assert not hasattr(harness, "validate_corpus")
    calls = []

    def counting(name):
        return lambda *a, **k: calls.append(name) or check_harmonically_quasiconvex(*a, **k)

    monkeypatch.setattr(harness, "check_harmonically_quasiconvex", counting("check"))
    monkeypatch.setattr(harmonic, "check_harmonically_quasiconvex", counting("validate_corpus"))
    out = run_checkfn("square", 1.0, 2.0, 20, "quasi")
    assert (out["function"], out["status"]) == ("square", "no_violation_found")
    assert calls == ["check"]


def test_checkfn_expression():
    out = run_checkfn("(x-2)^2", 1.0, 4.0, 15, "quasi")
    assert out["status"] == "no_violation_found"  # valley shape is quasi-convex
    out = run_checkfn("-(x-2)^2", 1.0, 4.0, 15, "quasi")
    assert out["status"] == "violated"


def test_checkfn_mode_validation():
    with pytest.raises(ValueError):
        run_checkfn("identity", 1.0, 2.0, 10, "concave")
    with pytest.raises(ValueError):
        run_checkfn("identity", 2.0, 1.0, 10, "quasi")


def _ev(expr, u):
    return _compile(expr)(u)


def test_expression_grammar():
    assert _ev("2*x+1", 3.0) == 7.0
    assert _ev("x^2", 3.0) == 9.0
    assert _ev("2**3**2", 0.0) == 512.0  # right-associative
    assert _ev("-x**2", 2.0) == -4.0
    assert _ev("2+3*x", 2.0) == 8.0
    assert _ev("(2+3)*x", 2.0) == 10.0
    assert _ev("ln(exp(x))", 1.7) == pytest.approx(1.7, rel=1e-15)
    assert _ev("sqrt(u*u)", 2.5) == pytest.approx(2.5, rel=1e-15)
    assert _ev("x/4 - 1/x", 2.0) == 0.0
    assert _ev("1.5e2", 0.0) == 150.0
    assert _ev(" x ", 3.0) == 3.0
    assert _ev("2^-1", 0.0) == 0.5
    assert _ev("--x", 3.0) == 3.0
    assert _ev("2*-x", 3.0) == -6.0
    assert _ev("2^3^2", 0.0) == 512.0  # right-associative
    # Python literal spellings and a trailing comment
    assert _ev("1_000 + 0x10 + 0o7 + 0b1 + x  # note", 0.5) == 1024.5


def test_expression_errors():
    for bad in (
        "x*(", "2 +", "foo(x)", "x y", "x $ 2", "ln 2", "",
        "+x", "x<1", "1j*x", "True*x", "'a'",
        "ln(x,2)", "ln(x,)", "ln(*[x])", "x.real", "(y:=x)", "x if x else 1",
        "\uff58", "07",  # a fullwidth x; a zero-led decimal integer, as Python has it
        "(" * 300 + "x" + ")" * 300, "-" * 5000 + "x", "x" + "**x" * 5000,  # nested too deep
    ):
        with pytest.raises(ValueError):
            _compile(bad)


# --- CLI ---


def test_cli_verify_exit_codes(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["verify", "--lambdas", "0", "--alphas", "1", "--qs", "1", "--functions", "identity", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["violations"] == 0
    capsys.readouterr()


def test_cli_verbatim_violations_and_expect_flag(tmp_path, capsys):
    args = [
        "verify",
        "--variant",
        "verbatim",
        "--x-mode",
        "grid",
        "--functions",
        "identity",
        "--lambdas",
        "0",
        "--alphas",
        "1",
        "--qs",
        "2",
        "--out",
        str(tmp_path / "r.json"),
    ]
    assert main(args) == 1
    assert main(args + ["--expect-violations"]) == 0
    capsys.readouterr()


def test_cli_variant_mapping(tmp_path):
    out = tmp_path / "rep.json"
    main(["verify", "--variant", "corrected", "--lambdas", "0", "--alphas", "1", "--qs", "1", "--functions", "identity", "--out", str(out)])
    assert json.loads(out.read_text())["config"]["variant"] == "symmetric_corrected"


def test_cli_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SMALL, alphas=[0.5])))
    out = tmp_path / "rep.json"
    assert main(["verify", "--config", str(cfg), "--alphas", "2.0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["alphas"] == [2.0]  # flag wins
    assert payload["config"]["lambdas"] == [0.0, 0.5]  # file survives elsewhere


def test_cli_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"alphas": [1.0], "bogus": 3}')
    assert main(["verify", "--config", str(cfg)]) == 2
    cfg.write_text("not json")
    assert main(["verify", "--config", str(cfg)]) == 2
    for bad in (
        '{"x_count": null}', '{"lambdas": 5}', '{"seed": [1]}', '{"functions": 5}', '["intervals"]', '{"checker_n": 2.7}',
        '{"tol_identity": true}', '{"lambdas": [true]}', '{"seed": true}', '{"x_count": true}', '{"intervals": [[true, 2]]}',
        '{"lambdas": ["0.5"], "alphas": ["1"]}', '{"intervals": [["1", "2"]]}', '{"qs": ["2"]}', '{"functions": "expx"}',
        '{"functions": {"expx": 1}}', '{"functions": [5]}',
    ):
        cfg.write_text(bad)
        assert main(["verify", "--config", str(cfg)]) == 2, bad
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_repeated_grid_value_exits_2(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["verify", "--lambdas", "0,0", "--functions", "square", "--out", str(out)]) == 2
    assert "lambdas must not repeat a value" in capsys.readouterr().err
    assert main(["verify", "--interval", "1:2", "--interval", "1:2", "--out", str(out)]) == 2
    assert "intervals must not repeat a value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--interval", "1-2", "argument --interval: invalid _interval value: '1-2'"),
        ("--alphas", ",", "argument --alphas: invalid _floats value: ','"),
    ],
)
def test_cli_unparsable_flag_value_exits_2(capsys, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify", flag, value])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def _tol_scale_config(tmp_path, scale):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol_scale": scale}))
    return str(cfg)


def test_cli_tol_scale_from_the_config(tmp_path, capsys):
    out = tmp_path / "rep.json"
    args = ["--lambdas", "0", "--alphas", "1", "--qs", "1", "--functions", "identity", "--out", str(out)]
    assert main(["verify", "--config", _tol_scale_config(tmp_path, 2.5), *args]) == 0
    assert json.loads(out.read_text())["config"]["tol_scale"] == 2.5
    assert main(["verify", "--config", _tol_scale_config(tmp_path, 0)]) == 2
    assert main(["verify", "--config", _tol_scale_config(tmp_path, "soft")]) == 2
    capsys.readouterr()


def test_cli_reads_no_tol_scale_from_the_environment(tmp_path, monkeypatch):
    # a run is fixed by its command line and its config: HQFI_TOL_SCALE, once read, is ignored even when invalid
    out = tmp_path / "rep.json"
    args = ["verify", "--lambdas", "0", "--alphas", "1", "--qs", "1", "--functions", "identity", "--out", str(out)]
    for raw in ("0", "soft"):
        monkeypatch.setenv("HQFI_TOL_SCALE", raw)
        assert main(args) == 0, raw
        assert json.loads(out.read_text())["config"]["tol_scale"] == 1.0, raw


def test_cli_overflowing_scaled_tolerance_exits_2(tmp_path, capsys):
    # the verbatim run has violations and exits 1; an infinite slack tolerance would hide them all
    out = tmp_path / "rep.json"
    args = ["verify", "--config", _tol_scale_config(tmp_path, 1e300), "--variant", "verbatim", "--tol-slack", "1e10"]
    assert main([*args, "--out", str(out)]) == 2
    assert "tol_slack * tol_scale must be a positive finite real, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_cli_underflowing_quadrature_tolerance_exits_2_before_any_work(tmp_path, monkeypatch, capsys):
    # _ABS_TOL * 1e-313 rounds to 0, while the identity and slack tolerances stay positive subnormals
    assert _ABS_TOL * 1e-313 == 0.0 < SweepConfig().tol_slack * 1e-313 and 0.0 < SweepConfig().tol_identity * 1e-313
    monkeypatch.setattr(harness, "_setup", lambda cfg: pytest.fail("the run started"))
    out = tmp_path / "rep.json"
    assert main(["verify", "--config", _tol_scale_config(tmp_path, 1e-313), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: quadrature abs_tol * tol_scale must be a positive finite real, got 0.0\n"
    assert not out.exists()


def test_cli_csv_output(tmp_path):
    out = tmp_path / "rep.csv"
    main(["verify", "--format", "csv", "--lambdas", "0", "--alphas", "1", "--qs", "1", "--functions", "identity", "--out", str(out)])
    first = out.read_text().split("\n", 1)[0]
    assert first.startswith("kind,function,a,b,x")


def test_cli_csv_to_out_and_to_stdout_are_the_same_bytes(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(_ENDPOINT_SWEEP), encoding="utf-8")
    args = ["verify", "--config", str(config), "--variant", "both", "--expect-violations", "--format", "csv"]
    out = tmp_path / "r.csv"
    assert main([*args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(args) == 0
    written, streamed = out.read_bytes(), capsys.readouterr().out.encode("utf-8")
    want = run_verify(SweepConfig.from_dict(dict(_ENDPOINT_SWEEP, variant="both"))).to_csv().encode("utf-8")
    assert (written == streamed, written == want) == (True, True)  # a bool each, so a failure prints no long diff


def test_cli_constants_stdout(capsys):
    assert main(["constants", "--alpha", "1", "--lambda", "0.3333333333333333", "--q", "1", "--r", "1", "--which", "c1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["c1"]["closed"] == pytest.approx(5.0 / 18.0, rel=1e-12)
    assert payload["results"]["c1"]["rel_delta"] <= 1e-10
    # invalid q and r are a domain error whichever moment is asked for
    for which in ("c1", "c2"):
        assert main(["constants", "--alpha", "1", "--lambda", "0.5", "--q", "0.2", "--r", "-3", "--which", which]) == 2
        assert capsys.readouterr().out == ""


def test_cli_checkfn_always_exits_zero_on_completion(capsys):
    assert main(["checkfn", "--fn", "piecewise_plateau", "--domain", "0.1:4", "--n", "30", "--mode", "convex"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "violated"
    assert main(["checkfn", "--fn", "x*x", "--domain", "1:2", "--n", "8", "--mode", "quasi"]) == 0
    capsys.readouterr()


def test_cli_checkfn_expression_with_leading_minus(capsys, monkeypatch):
    # "--fn -x" is read as an option; the attached form passes the expression, and the help says so
    assert main(["checkfn", "--fn=-x", "--domain", "1:2"]) == 0
    assert json.loads(capsys.readouterr().out)["function"] == "-x"
    with pytest.raises(SystemExit):
        main(["checkfn", "--fn", "-x", "--domain", "1:2"])
    assert "--fn: expected one argument" in capsys.readouterr().err
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(["checkfn", "--help"])
    assert "--fn=-x" in capsys.readouterr().out


def test_cli_checkfn_parse_error_exits_2(capsys):
    assert main(["checkfn", "--fn", "x*(", "--domain", "1:2", "--n", "5", "--mode", "quasi"]) == 2
    assert "error" in capsys.readouterr().err
    # parsed, but with no real value at some sample: a domain error, a zero division, an overflow, a complex value
    for fn in ("ln(x-2)", "1/(x-2)", "(x-2)^-1", "exp(x)^1000", "(x-2)^0.5"):
        assert main(["checkfn", "--fn", fn, "--domain", "1:4", "--n", "4", "--mode", "quasi"]) == 2, fn
        assert f"expression {fn!r} has no real value at u = " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # OverflowError for the inf that c2 would return: 2F1(2000, 2; 3; 0.5) is past the double range
        ["constants", "--alpha", "1", "--lambda", "0", "--q", "1000", "--r", "0.5"],
        # OverflowError at w**d in hyp2f1
        ["constants", "--alpha", "1", "--lambda", "0.5", "--q", "3000", "--r", "0.05"],
        # OverflowError in c2 where alpha + 1 and alpha + 2 round together, not a c <= b to reject
        ["constants", "--alpha", "1e300", "--lambda", "0.5", "--q", "1", "--r", "0.5"],
        ["constants", "--alpha", "1e17", "--lambda", "0.5", "--q", "1", "--r", "0.5"],
        # OverflowError at s**(-2q) in the bound's c3
        ["verify", "--interval", "1:4", "--functions", "piecewise_plateau", "--qs", "1000", "--alphas", "1",
         "--lambdas", "0.5", "--x-mode", "grid"],
        # OverflowError for the inf that c2 would otherwise return, and write into the report
        ["verify", "--interval", "1:4", "--functions", "piecewise_plateau", "--qs", "1000", "--alphas", "1",
         "--lambdas", "0", "--x-mode", "explicit", "--x-values", "4"],
    ],
)
def test_cli_float_overflow_exits_3(argv, tmp_path, capsys):
    # exit 1 means violations found; a float overflow or zero division is a numerical failure, like quadrature's
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)] if argv[0] == "verify" else argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1
    assert not out.exists()  # the report is streamed to --out, which is opened only after the run


def test_cli_tolerance_below_the_roundoff_floor_exits_3(tmp_path, capsys):
    # without the roundoff-floor check, integrate spends its 10,000-panel budget here, several seconds
    args = ["--functions", "expx", "--alphas", "1", "--qs", "1", "--lambdas", "0"]
    assert main(["verify", "--config", _tol_scale_config(tmp_path, 1e-6), *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("quadrature failure: ") and "roundoff floor" in err and err.count("\n") == 1


def test_cli_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_cli_stdout_report_when_no_out(capsys):
    assert main(["verify", "--lambdas", "0", "--alphas", "1", "--qs", "1", "--functions", "const_zero"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["violations"] == 0


def test_cli_report_bytes_are_canonical_json(tmp_path, capsys):
    # float repr round-trips exactly, so re-encoding the parsed report pins every byte
    args = ["verify", "--variant", "both", "--expect-violations"]
    out = tmp_path / "r.json"
    assert main(args + ["--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    _assert_reference_json(text, json.loads(text))
    capsys.readouterr()
    assert main(args) == 0
    stdout = capsys.readouterr().out
    _assert_reference_json(stdout, json.loads(stdout))
    # stdout and --out carry the same report; only its timestamp line may differ
    stamp = re.compile(r'^  "generated_at": ".*",\n', re.M)
    (out_body, n_out), (stdout_body, n_stdout) = (stamp.subn("", report) for report in (text, stdout))
    same = out_body == stdout_body  # a bool, so a failure prints no diff of two long strings
    assert (n_out, n_stdout, same) == (1, 1, True)


class _Sink:
    """A text stream that keeps each write."""

    def __init__(self) -> None:
        self.writes = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


# the benchmark's dense sweep: a 7.8 MB report
_DENSE_SWEEP = {
    "x_mode": "grid",
    "x_count": 5,
    "alphas": [0.1, 0.5, 1.0, 2.0, 5.0],
    "qs": [1.0, 1.5, 2.0, 4.0],
    "variant": "both",
}


def test_cli_writes_the_report_in_pieces_of_at_least_64_kib(monkeypatch):
    rep = run_verify(SweepConfig.from_dict(_DENSE_SWEEP))
    want = rep.to_json()
    opened = []

    def fake_open(path, mode, encoding):
        assert (path, mode, encoding) == ("r.json", "w", "utf-8")
        opened.append(_Sink())
        return opened[-1]

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    cli._emit(rep.json_chunks(), "r.json")
    stdout = _Sink()
    monkeypatch.setattr(sys, "stdout", stdout)
    cli._emit(rep.json_chunks(), None)
    for sink in (*opened, stdout):
        assert "".join(sink.writes) == want
        assert len(sink.writes) > 100 and min(map(len, sink.writes[:-1])) >= 65536
