"""The three workloads: inputs made from a seed, the command of one run, and its output checks.

Why these three (each exercises layers the others barely touch):

- sweep_dense: `hqfi verify --variant both` over all nine corpus functions on
  [1, 2].  Bound-heavy: kernels/specialfn recompute the same 960 c2/c3 values
  30,720 times and harness serializes a 7.5 MB report, so a constants table or
  a faster serializer shows here.
- sweep_wide: piecewise_plateau on wide intervals, corrected variant.  The
  hypothesis gate skips most bounds, so quad, fracint and the identity do the
  work, and it carries the known identity failures (see README.md).
- constants_grid: `run_constants` at 576 distinct points in one process.
  Every point is distinct, so a memo must not help; it is the only traffic
  that reaches hyp2f1_integral (r <= 0.1) and kernel_oracle.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

# acceptance tolerances of the closed-form constants against their oracles
CONSTANT_TOLERANCES = {"c1": 1e-10, "c2": 1e-9, "c3": 1e-9}

_CHILD = str(Path(__file__).resolve().parent / "child.py")
_VARIANT_FLAGS = {"both": "both", "symmetric_corrected": "corrected", "as_stated": "verbatim"}


def canonical_sha256(payload) -> str:
    """sha256 of the key-sorted compact JSON of `payload`."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Check:
    """Outcome of checking one run's output."""

    findings: int = 0  # operations the program completed but reported as failed
    incomplete: int = 0  # operations that produced no result
    sha256: str | None = None
    problems: list[str] = field(default_factory=list)  # empty when the output is correct


class Sweep:
    """A `hqfi verify` campaign; the seed becomes SweepConfig.seed, the grid is fixed."""

    setup_code = "import hqfi; hqfi.validate_corpus()"

    def __init__(self, name: str, grid: dict, seed: int) -> None:
        from hqfi import SweepConfig, corpus

        self.name = name
        self.cfg = c = SweepConfig.from_dict({**grid, "seed": seed})
        self.functions = [f for f in corpus() if c.functions == "all" or f.label in c.functions]
        self.identity_ops, self.bound_ops, self.bound_skips = self._expected_counts()
        self.ops = self.identity_ops + self.bound_ops
        self.size = {
            "intervals": len(c.intervals),
            "functions": len(self.functions),
            "x_count": c.x_count,
            "lambdas": len(c.lambdas),
            "alphas": len(c.alphas),
            "qs": len(c.qs),
            "variant": c.variant,
            "identity_records": self.identity_ops,
            "bound_records": self.bound_ops,
        }

    def _expected_counts(self) -> tuple[int, int, int]:
        """Record counts implied by the grid and by the hypothesis verdict of each (f, interval, q)."""
        from hqfi import IntervalDomain, abs_derivative_power, check_harmonically_quasiconvex

        c = self.cfg
        n_variants = 2 if c.variant == "both" else 1
        n_x = {"h_point": 1, "grid": c.x_count, "explicit": len(c.x_values)}[c.x_mode]
        identity = bound = skips = 0
        for a, b in c.intervals:
            domain = IntervalDomain(a, b)
            for f in self.functions:
                if not f.domain.encloses(domain):
                    continue
                points = n_x * len(c.lambdas) * len(c.alphas)
                identity += points
                for q in c.qs:
                    verdict = check_harmonically_quasiconvex(
                        abs_derivative_power(f, q), domain, n=c.checker_n, seed=c.seed
                    )
                    if verdict.violated:
                        skips += points
                    else:
                        bound += points * (2 if q <= 1.0 else 3) * n_variants
        return identity, bound, skips

    def prepare(self, work: Path) -> None:
        (work / f"{self.name}.config.json").write_text(json.dumps(self.cfg.to_dict()), encoding="utf-8")

    def output(self, work: Path) -> Path:
        return work / f"{self.name}.report.json"

    def command(self, work: Path, trace: Path | None = None) -> list[str]:
        args = ["verify", "--config", str(work / f"{self.name}.config.json")]
        args += ["--variant", _VARIANT_FLAGS[self.cfg.variant], "--expect-violations", "--out", str(self.output(work))]
        if trace is None:
            return [sys.executable, "-m", "hqfi.cli", *args]
        return [sys.executable, _CHILD, "--trace", str(trace), *args]

    def check(self, work: Path) -> Check:
        try:
            with open(self.output(work), encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return Check(incomplete=self.ops, problems=[f"no readable report: {exc}"])
        out = Check(sha256=canonical_sha256({k: v for k, v in report.items() if k != "generated_at"}))
        out.problems = self._problems(report)
        ids, recs = report.get("identity_records", []), report.get("records", [])
        out.findings = sum(1 for r in ids if not r["ok"])
        out.findings += sum(1 for r in recs if r["variant"] == "symmetric_corrected" and not r["holds"])
        return out

    def _problems(self, report: dict) -> list[str]:
        c = self.cfg
        problems = []
        if report.get("config") != c.to_dict():
            problems.append("report config differs from the workload config")
        ids, recs = report.get("identity_records", []), report.get("records", [])
        if len(ids) != self.identity_ops or len(recs) != self.bound_ops:
            problems.append(
                f"record counts {len(ids)}/{len(recs)} differ from the grid's {self.identity_ops}/{self.bound_ops}"
            )
        id_tol = c.tol_identity * c.tol_scale
        slack_tol = c.tol_slack * c.tol_scale
        by_key = {}
        for r in ids:
            by_key[(r["function"], r["a"], r["b"], r["x"], r["lam"], r["alpha"])] = r
            residual = abs(r["lhs"] - r["rhs"])
            scaled = residual / (1.0 + abs(r["lhs"]))
            if (r["residual"], r["residual_scaled"], r["ok"]) != (residual, scaled, scaled <= id_tol):
                problems.append(f"inconsistent identity record {r}")
        for r in recs:
            ident = by_key.get((r["function"], r["a"], r["b"], r["x"], r["lam"], r["alpha"]))
            slack = r["bound"] - r["lhs_abs"]
            if ident is None or (r["lhs_abs"], r["identity_residual"]) != (abs(ident["lhs"]), ident["residual_scaled"]):
                problems.append(f"bound record without its identity record {r}")
            elif (r["slack"], r["holds"]) != (slack, slack >= -slack_tol):
                problems.append(f"inconsistent bound record {r}")
        if report.get("violations") != [i for i, r in enumerate(recs) if not r["holds"]]:
            problems.append("violations list differs from the records that do not hold")
        if report.get("summary") != self._summary(ids, recs):
            problems.append(f"summary {report.get('summary')} differs from the one recomputed from the records")
        return problems[:5]

    def _summary(self, ids: list, recs: list) -> dict:
        """The report summary, recomputed from the records."""
        variants = ("as_stated", "symmetric_corrected") if self.cfg.variant == "both" else (self.cfg.variant,)
        by_variant = {v: sum(1 for r in recs if r["variant"] == v and not r["holds"]) for v in variants}
        min_slack = {v: min((r["slack"] for r in recs if r["variant"] == v), default=None) for v in variants}
        return {
            "cases": len(recs),
            "identity_cases": len(ids),
            "violations": sum(by_variant.values()),
            "violations_by_variant": by_variant,
            "identity_failures": sum(1 for r in ids if not r["ok"]),
            "max_identity_residual": max((r["residual_scaled"] for r in ids), default=0.0),
            "min_slack_by_variant": min_slack,
            "bound_skips": self.bound_skips,
        }


class Constants:
    """`run_constants` over a 6x4x4x6 grid of (alpha, lam, q, r) in one process.

    Seed 0 is the grid itself.  Another seed moves every alpha and q within its
    own stratum (x0.8 to x1.25, clipped to the grid's range).  r and lam keep
    their grid values: r sets the cost of a point (r <= 0.1 takes the Euler
    integral route of 2F1, r >= 0.5 the series) and lam in {0, 1} selects other
    closed-form branches.  Seeds other than 0 then do the same work to within
    about 1% of GK15 panels; the grid itself does about 14% fewer, because
    values such as alpha = q = 1 give integrands that converge in fewer panels.
    """

    setup_code = "import hqfi"
    ALPHAS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    LAMBDAS = (0.0, 1.0 / 3.0, 0.5, 1.0)
    QS = (1.0, 2.0, 4.0, 8.0)
    RS = (0.01, 0.05, 0.1, 0.5, 0.75, 1.0)

    def __init__(self, seed: int) -> None:
        self.name = "constants_grid"
        grid = list(itertools.product(self.ALPHAS, self.LAMBDAS, self.QS, self.RS))
        if seed != 0:
            rng = random.Random(seed)

            def jitter(v: float, lo: float, hi: float) -> float:
                return min(max(v * rng.uniform(0.8, 1.25), lo), hi)

            grid = [(jitter(a, 0.1, 10.0), lam, jitter(q, 1.0, 8.0), r) for a, lam, q, r in grid]
        self.points = grid
        self.ops = len(grid)
        axes = {"alphas": self.ALPHAS, "lambdas": self.LAMBDAS, "qs": self.QS, "rs": self.RS}
        self.size = {"points": len(grid), **{k: len(v) for k, v in axes.items()}}

    def prepare(self, work: Path) -> None:
        (work / "constants.points.json").write_text(json.dumps(self.points), encoding="utf-8")

    def output(self, work: Path) -> Path:
        return work / "constants.results.json"

    def command(self, work: Path, trace: Path | None = None) -> list[str]:
        args = ["constants", str(work / "constants.points.json"), str(self.output(work))]
        return [sys.executable, _CHILD, *(["--trace", str(trace)] if trace else []), *args]

    def check(self, work: Path) -> Check:
        try:
            with open(self.output(work), encoding="utf-8") as fh:
                results = json.load(fh)
        except (OSError, ValueError) as exc:
            return Check(incomplete=self.ops, problems=[f"no readable results: {exc}"])
        out = Check(sha256=canonical_sha256(results))
        if len(results) != len(self.points):
            out.problems.append(f"{len(results)} results for {len(self.points)} points")
        for point, res in zip(self.points, results):
            if [res.get(k) for k in ("alpha", "lam", "q", "r")] != list(point):
                out.problems.append(f"result {res} is not for point {point}")
            elif "error" in res:
                out.incomplete += 1
            elif set(res["results"]) != set(CONSTANT_TOLERANCES):
                out.problems.append(f"result {res} lacks one of {sorted(CONSTANT_TOLERANCES)}")
            else:
                for which, block in res["results"].items():
                    abs_delta = abs(block["closed"] - block["oracle"])
                    rel_delta = abs_delta / max(abs(block["oracle"]), 1e-300)
                    if (block["abs_delta"], block["rel_delta"]) != (abs_delta, rel_delta):
                        out.problems.append(f"inconsistent deltas for {which} at {point}")
                blocks = res["results"].items()
                out.findings += any(block["rel_delta"] > CONSTANT_TOLERANCES[w] for w, block in blocks)
        out.problems = out.problems[:5]
        return out


SWEEP_DENSE = {
    "intervals": [[1.0, 2.0]],
    "x_mode": "grid",
    "x_count": 5,
    "alphas": [0.1, 0.5, 1.0, 2.0, 5.0],
    "qs": [1.0, 1.5, 2.0, 4.0],
    "functions": "all",
    "variant": "both",
}
SWEEP_WIDE = {
    "intervals": [[0.1, 4.0], [0.5, 4.0], [1.0, 4.0]],
    "x_mode": "grid",
    "x_count": 9,
    "alphas": [0.05, 0.25, 1.0, 4.0, 10.0],
    "qs": [1.0, 2.0, 8.0],
    "functions": ["piecewise_plateau"],
    "variant": "symmetric_corrected",
}

WORKLOADS = {
    "sweep_dense": lambda seed: Sweep("sweep_dense", SWEEP_DENSE, seed),
    "sweep_wide": lambda seed: Sweep("sweep_wide", SWEEP_WIDE, seed),
    "constants_grid": Constants,
}
