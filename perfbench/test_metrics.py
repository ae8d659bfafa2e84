"""Tests of the benchmark's own code: metric arithmetic, output checks and the tracer.

    python3 -m pytest perfbench -q
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from metrics import (  # noqa: E402
    EXACT_UNITS,
    LAYER_UNITS,
    REFERENCE_PASS_S,
    inclusive_s,
    layer_metrics,
    median_n,
    scaled_s,
    self_times,
    tally,
)
from workloads import Constants, Sweep  # noqa: E402


def test_median_reports_its_sample_count():
    assert median_n([3.0, 1.0, 2.0]) == (2.0, 3)
    assert median_n([4.0, 1.0, 3.0, 2.0]) == (2.5, 4)
    with pytest.raises(ValueError):
        median_n([])


def test_scaling_credits_the_wall_time_at_reference_speed():
    assert scaled_s(3.0, REFERENCE_PASS_S, REFERENCE_PASS_S) == pytest.approx(3.0)
    # the machine ran the pass 1.5x slower around this child, on average
    assert scaled_s(3.0, 1.25 * REFERENCE_PASS_S, 1.75 * REFERENCE_PASS_S) == pytest.approx(2.0)


# root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 6];  d [11, 12] is a second root
NESTED = {
    "start": [0.0, 1.0, 2.0, 5.0, 11.0],
    "end": [10.0, 4.0, 3.0, 6.0, 12.0],
    "parent": [-1, 0, 1, 0, -1],
}


def test_self_time_subtracts_child_spans_only():
    assert self_times(**NESTED) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    # children [1, 4] and [3, 5] cover [1, 5]; a child past the parent's end is clipped
    assert self_times([0.0, 1.0, 3.0], [10.0, 4.0, 5.0], [-1, 0, 0]) == [6.0, 3.0, 2.0]
    assert self_times([0.0, 8.0], [10.0, 12.0], [-1, 0]) == [8.0, 4.0]


def test_inclusive_time_counts_nested_group_members_once():
    names = [0, 1, 1, 2, 1]
    # group {1}: span 1 [1, 4] holds span 2 [2, 3]; span 4 [11, 12] is a root
    assert inclusive_s({1}, names, **NESTED) == 4.0
    assert inclusive_s({0, 1}, names, **NESTED) == 11.0
    assert inclusive_s(set(), names, **NESTED) == 0.0


@pytest.mark.parametrize("code", [0, 1])
def test_exit_codes_0_and_1_are_completed_runs(code):
    assert tally(code, ops=1440, findings=45) == (1440, 45, 0)
    assert tally(code, ops=576, findings=2, incomplete=1) == (576, 3, 1)


@pytest.mark.parametrize("code", [2, 3, -9])
def test_other_exit_codes_fail_every_operation(code):
    assert tally(code, ops=1440, findings=45) == (1440, 1440, 1440)


def test_layer_metrics_from_a_synthetic_trace():
    names = ["harness.run_verify", "bounds.bound_t22", "kernels.c2", "specialfn.hyp2f1", "specialfn.hyp2f1_series"]
    trace = {
        "names": names,
        # run_verify [0, 10] > t22 [1, 5] > c2 [2, 4] > hyp2f1 [2.5, 3.5] > series [2.6, 3.4]
        #                    > t22 [6, 8] > c2 [6.5, 7.5] > hyp2f1 [7, 7.25] > series [7, 7.25]
        "span_name": [0, 1, 2, 3, 4, 1, 2, 3, 4],
        "start": [0.0, 1.0, 2.0, 2.5, 2.6, 6.0, 6.5, 7.0, 7.0],
        "end": [10.0, 5.0, 4.0, 3.5, 3.4, 8.0, 7.5, 7.25, 7.25],
        "parent": [-1, 0, 1, 2, 3, 0, 5, 6, 7],
        "distinct": {"specialfn.hyp2f1": 1, "kernels.c2": 1, "kernels.c3": 0},
        "counters": {"harmonic.check.samples": 7, "harness.report_bytes": 99},
        "import_s": 0.04,
    }
    m = layer_metrics(trace)
    assert list(m) == list(LAYER_UNITS)
    assert m["bounds.bound.calls"] == 2 and m["bounds.bound.incl_s"] == 6.0
    assert m["kernels.c2c3.calls"] == 2 and m["kernels.c2c3.distinct_ratio"] == 0.5
    assert m["kernels.c2c3.incl_s"] == 3.0
    assert m["specialfn.hyp2f1.calls"] == 2 and m["specialfn.hyp2f1.distinct_ratio"] == 0.5
    assert m["specialfn.hyp2f1_series.self_s"] == pytest.approx(1.05)
    assert m["specialfn.hyp2f1_series.us_per_call"] == pytest.approx(0.525e6)
    assert m["harness.run_verify.self_s"] == 4.0
    assert m["quad.gk15.calls"] == 0 and m["quad.panels_per_integrate"] == 0.0
    assert (m["harmonic.check.samples"], m["harness.report_bytes"], m["cli.import_s"]) == (7, 99, 0.04)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == [*LAYER_UNITS, "trace.overhead_ratio", "fail_ratio"]
    assert [m["unit"] for m in spec["per_layer"]][: len(LAYER_UNITS)] == list(LAYER_UNITS.values())
    assert [m["name"] for m in spec["end_to_end"]] == ["run_s", "records_per_s", "setup_s", "peak_rss_mb"]
    assert sorted(w["name"] for w in spec["workloads"]) == ["constants_grid", "sweep_dense", "sweep_wide"]


SMALL = {"lambdas": [0.0, 0.5], "alphas": [1.0], "qs": [1.0, 2.0], "functions": ["identity", "square"]}


def _write_report(path: Path, cfg_dict: dict, edit=None) -> None:
    from hqfi import SweepConfig, run_verify

    payload = run_verify(SweepConfig.from_dict(cfg_dict)).to_payload()
    if edit is not None:
        edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_sweep_check_accepts_a_real_report_and_counts_its_records(tmp_path):
    sweep = Sweep("small", {**SMALL, "variant": "both"}, seed=0)
    assert (sweep.identity_ops, sweep.bound_ops, sweep.bound_skips) == (4, 2 * (2 + 3) * 2 * 2, 0)
    _write_report(sweep.output(tmp_path), sweep.cfg.to_dict())
    check = sweep.check(tmp_path)
    assert check.problems == [] and check.incomplete == 0 and len(check.sha256) == 64


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda p: p["summary"].update(cases=1), "summary"),
        (lambda p: p["records"].pop(), "record counts"),
        (lambda p: p["identity_records"][0].update(ok=False), "inconsistent identity record"),
        (lambda p: p["records"][0].update(slack=-1.0), "inconsistent bound record"),
        (lambda p: p["violations"].append(0), "violations list"),
    ],
)
def test_sweep_check_reports_tampered_output(tmp_path, edit, problem):
    sweep = Sweep("small", {**SMALL, "variant": "both"}, seed=0)
    _write_report(sweep.output(tmp_path), sweep.cfg.to_dict(), edit)
    assert any(problem in p for p in sweep.check(tmp_path).problems)


def test_sweep_check_counts_identity_failures_as_findings(tmp_path):
    sweep = Sweep("small", {**SMALL, "variant": "both"}, seed=0)
    # a tolerance nothing can meet turns every identity record into a finding
    cfg = {**sweep.cfg.to_dict(), "tol_identity": 1e-300}
    sweep.cfg = type(sweep.cfg).from_dict(cfg)
    _write_report(sweep.output(tmp_path), cfg)
    check = sweep.check(tmp_path)
    assert check.problems == [] and check.findings == 4


def test_missing_output_fails_every_operation(tmp_path):
    sweep = Sweep("small", SMALL, seed=0)
    check = sweep.check(tmp_path)
    assert check.incomplete == sweep.ops and check.problems


def test_constants_seed_zero_is_the_grid_and_other_seeds_stay_in_strata():
    assert Constants(0).points[0] == (0.1, 0.0, 1.0, 0.01) and len(Constants(0).points) == 576
    grid, drawn = Constants(0).points, Constants(7).points
    assert drawn == Constants(7).points and drawn != grid and len(set(drawn)) == 576
    for (a0, l0, q0, r0), (a, lam, q, r) in zip(grid, drawn):
        assert (lam, r) == (l0, r0) and 0.1 <= a <= 10.0 and 1.0 <= q <= 8.0
        assert 0.8 * a0 <= a <= 1.25 * a0 and 0.8 * q0 <= q <= 1.25 * q0


def test_traced_child_counts_calls_through_every_binding(tmp_path):
    points = [[1.0, 0.5, 2.0, 0.75], [2.0, 0.0, 1.0, 0.05]]
    (tmp_path / "p.json").write_text(json.dumps(points), encoding="utf-8")
    layers = []
    for i in range(2):
        spans = tmp_path / f"spans{i}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--trace", str(spans), "constants"]
        cmd += [str(tmp_path / "p.json"), str(tmp_path / "out.json")]
        env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
        subprocess.run(cmd, check=True, env=env, timeout=120)
        layers.append(layer_metrics(json.loads(spans.read_text(encoding="utf-8"))))
    m = layers[0]
    # run_constants reaches c2/c3 and kernel_oracle through the harness namespace
    assert m["kernels.c2c3.calls"] == 4 and m["kernels.kernel_oracle.calls"] == 4 and m["kernels.c1.calls"] == 2
    assert m["specialfn.hyp2f1_integral.calls"] > 0 and m["quad.gk15.calls"] > 0
    assert m["harmonic.check.calls"] == 0
    counts = [{k: v for k, v in ms.items() if LAYER_UNITS[k] in EXACT_UNITS} for ms in layers]
    assert counts[0] == counts[1]
