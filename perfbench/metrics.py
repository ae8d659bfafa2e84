"""Metric arithmetic of the benchmark: medians, operation tallies, span self time, per-layer figures.

Pure functions over plain lists and dicts, so `test_metrics.py` can pin them
without starting a process.
"""
from __future__ import annotations

import statistics

# hqfi exit codes: 0 ran clean, 1 ran and reported identity failures or bound
# violations (a finding, the run still completed), 2 configuration error,
# 3 quadrature non-convergence.  Anything else (a signal, a timeout kill) is
# also a run that did not complete.
COMPLETED_EXIT_CODES = (0, 1)


def median_n(values: list[float]) -> tuple[float, int]:
    """Median of the samples together with how many samples it rests on."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values), len(values)


def tally(exit_code: int, ops: int, findings: int, incomplete: int = 0) -> tuple[int, int, int]:
    """(attempted, failed, incomplete) operations of one run.

    `ops` is what the run was asked to do; `findings` are operations the
    program completed but reported as failed (identity records with ok=false,
    symmetric_corrected violations, constants beyond tolerance); `incomplete`
    are operations that produced no result.  A run that did not complete
    fails every one of its operations.
    """
    if exit_code in COMPLETED_EXIT_CODES:
        return ops, findings + incomplete, incomplete
    return ops, ops, ops


# Wall time of launch.reference_pass_s at the reference speed that timings are scaled to.
REFERENCE_PASS_S = 0.05


def scaled_s(wall_s: float, pass_before_s: float, pass_after_s: float) -> float:
    """A child's wall time scaled to the reference speed.

    A machine shared with other tenants can run everything 1.5x slower for
    minutes at a time.  The reference passes just before and after the child
    time a fixed pure-Python loop; the child is credited with the wall time it
    would have taken had that loop run in REFERENCE_PASS_S.
    """
    return wall_s * REFERENCE_PASS_S / (0.5 * (pass_before_s + pass_after_s))


def self_times(start: list[float], end: list[float], parent: list[int]) -> list[float]:
    """Per span: its duration minus the part of its interval that its child spans cover.

    Spans must be listed in the order they started, parents before children,
    as the tracer records them; each parent's children then arrive sorted by
    start and their union is measured in one pass.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)  # per parent: end of the union of its children seen so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [end[i] - start[i] - covered[i] for i in range(n)]


def inclusive_s(
    group: set[int], span_name: list[int], start: list[float], end: list[float], parent: list[int]
) -> float:
    """Wall time inside any span of `group`, counting a span nested in another of the group once."""
    total = 0.0
    for i, name in enumerate(span_name):
        if name not in group:
            continue
        p = parent[i]
        while p >= 0 and span_name[p] not in group:
            p = parent[p]
        if p < 0:
            total += end[i] - start[i]
    return total


# per-layer metric -> unit; the order is the order they are printed in
LAYER_UNITS = {
    "quad.gk15.calls": "count",
    "quad.gk15.self_s": "s",
    "quad.integrate.calls": "count",
    "quad.integrate.self_s": "s",
    "quad.panels_per_integrate": "ratio",
    "quad.integrate_singular.calls": "count",
    "specialfn.hyp2f1.calls": "count",
    "specialfn.hyp2f1.distinct_ratio": "ratio",
    "specialfn.hyp2f1_series.calls": "count",
    "specialfn.hyp2f1_series.self_s": "s",
    "specialfn.hyp2f1_series.us_per_call": "us",
    "specialfn.hyp2f1_integral.calls": "count",
    "specialfn.hyp2f1_integral.incl_s": "s",
    "specialfn.hyp2f1_integral.us_per_call": "us",
    "fracint.rl.calls": "count",
    "fracint.rl.incl_s": "s",
    "bounds.identity.calls": "count",
    "bounds.identity_lhs.incl_s": "s",
    "bounds.identity_rhs.incl_s": "s",
    "bounds.bound.calls": "count",
    "bounds.bound.incl_s": "s",
    "kernels.c1.calls": "count",
    "kernels.c2c3.calls": "count",
    "kernels.c2c3.distinct_ratio": "ratio",
    "kernels.c2c3.incl_s": "s",
    "kernels.kernel_oracle.calls": "count",
    "kernels.kernel_oracle.incl_s": "s",
    "harmonic.check.calls": "count",
    "harmonic.check.samples": "count",
    "harmonic.check.incl_s": "s",
    "harmonic.validate_corpus.incl_s": "s",
    "harness.run_verify.self_s": "s",
    "harness.serialize_s": "s",
    "harness.report_bytes": "bytes",
    "cli.import_s": "s",
}

# metrics that must repeat exactly between two traced runs of one seed
EXACT_UNITS = ("count", "ratio", "bytes")

_GROUPS = {
    "fracint.rl": ("fracint.rl_left", "fracint.rl_right"),
    "bounds.identity": ("bounds.identity_lhs", "bounds.identity_rhs"),
    "bounds.bound": ("bounds.bound_t22", "bounds.bound_t23", "bounds.bound_t24"),
    "kernels.c2c3": ("kernels.c2", "kernels.c3"),
    "harmonic.check": ("harmonic.check_harmonically_quasiconvex", "harmonic.check_harmonically_convex"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer figures of one traced run, from the payload `tracer.Tracer.dump` wrote."""
    names, span_name, start, end, parent = (trace[k] for k in ("names", "span_name", "start", "end", "parent"))
    ids = {name: i for i, name in enumerate(names)}
    calls = [0] * len(names)
    self_sum = [0.0] * len(names)
    for i, s in zip(span_name, self_times(start, end, parent)):
        calls[i] += 1
        self_sum[i] += s

    def count(*fns: str) -> int:
        return sum(calls[ids[f]] for f in fns if f in ids)

    def self_s(fn: str) -> float:
        return self_sum[ids[fn]] if fn in ids else 0.0

    def incl(*fns: str) -> float:
        return inclusive_s({ids[f] for f in fns if f in ids}, span_name, start, end, parent)

    distinct = trace["distinct"]
    counters = trace["counters"]
    c2c3 = _GROUPS["kernels.c2c3"]
    hyp_integral_s = incl("specialfn.hyp2f1_integral")
    return {
        "quad.gk15.calls": count("quad.gk15"),
        "quad.gk15.self_s": self_s("quad.gk15"),
        "quad.integrate.calls": count("quad.integrate"),
        "quad.integrate.self_s": self_s("quad.integrate"),
        "quad.panels_per_integrate": _ratio(count("quad.gk15"), count("quad.integrate")),
        "quad.integrate_singular.calls": count("quad.integrate_singular"),
        "specialfn.hyp2f1.calls": count("specialfn.hyp2f1"),
        "specialfn.hyp2f1.distinct_ratio": _ratio(distinct["specialfn.hyp2f1"], count("specialfn.hyp2f1")),
        "specialfn.hyp2f1_series.calls": count("specialfn.hyp2f1_series"),
        "specialfn.hyp2f1_series.self_s": self_s("specialfn.hyp2f1_series"),
        "specialfn.hyp2f1_series.us_per_call": 1e6
        * _ratio(self_s("specialfn.hyp2f1_series"), count("specialfn.hyp2f1_series")),
        "specialfn.hyp2f1_integral.calls": count("specialfn.hyp2f1_integral"),
        "specialfn.hyp2f1_integral.incl_s": hyp_integral_s,
        "specialfn.hyp2f1_integral.us_per_call": 1e6 * _ratio(hyp_integral_s, count("specialfn.hyp2f1_integral")),
        "fracint.rl.calls": count(*_GROUPS["fracint.rl"]),
        "fracint.rl.incl_s": incl(*_GROUPS["fracint.rl"]),
        "bounds.identity.calls": count(*_GROUPS["bounds.identity"]),
        "bounds.identity_lhs.incl_s": incl("bounds.identity_lhs"),
        "bounds.identity_rhs.incl_s": incl("bounds.identity_rhs"),
        "bounds.bound.calls": count(*_GROUPS["bounds.bound"]),
        "bounds.bound.incl_s": incl(*_GROUPS["bounds.bound"]),
        "kernels.c1.calls": count("kernels.c1"),
        "kernels.c2c3.calls": count(*c2c3),
        "kernels.c2c3.distinct_ratio": _ratio(sum(distinct[f] for f in c2c3), count(*c2c3)),
        "kernels.c2c3.incl_s": incl(*c2c3),
        "kernels.kernel_oracle.calls": count("kernels.kernel_oracle"),
        "kernels.kernel_oracle.incl_s": incl("kernels.kernel_oracle"),
        "harmonic.check.calls": count(*_GROUPS["harmonic.check"]),
        "harmonic.check.samples": counters["harmonic.check.samples"],
        "harmonic.check.incl_s": incl(*_GROUPS["harmonic.check"]),
        "harmonic.validate_corpus.incl_s": incl("harmonic.validate_corpus"),
        "harness.run_verify.self_s": self_s("harness.run_verify"),
        "harness.serialize_s": incl("harness.CampaignReport.to_json"),
        "harness.report_bytes": counters["harness.report_bytes"],
        "cli.import_s": trace["import_s"],
    }
