"""hqfi benchmark: times whole `hqfi` runs in fresh processes, one child at a time.

    python3 perfbench/run.py --workload sweep_dense --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Each run starts a fresh interpreter, because a user pays for the import, the
corpus validation and any future cache on every invocation.  Set-up runs (a
fresh process that imports hqfi, and validates the corpus where the workload
does) alternate with whole runs until `--seconds` have passed.  Every run's
output is checked (see workloads.py).  Every timing is scaled to a reference
machine speed probed just before and after each child (metrics.scaled_s), so
that a shared machine's slow spells do not read as changes of the program.

With `--trace 0` the last line carries the end-to-end metrics: run_s,
records_per_s, setup_s and peak_rss_mb.  With `--trace 1`, untraced and
traced runs alternate and the last line carries the per-layer metrics of the
traced runs (see metrics.py and tracer.py), the tracing overhead and
fail_ratio.  The lines before the last one give a readable summary and the
provenance; the full result, with every sample, goes to perfbench/.work/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from metrics import EXACT_UNITS, LAYER_UNITS, layer_metrics, median_n, scaled_s, tally
from workloads import WORKLOADS, canonical_sha256

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

MIN_SETUP_SAMPLES = 5
MIN_TRACED_RUNS = 2  # so that the per-layer counts are seen to repeat
CHILD_TIMEOUT_S = 60.0


@dataclass
class Run:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    pass_before_s: float
    pass_after_s: float

    @property
    def scaled_s(self) -> float:
        return scaled_s(self.wall_s, self.pass_before_s, self.pass_after_s)


class Launcher:
    """Runs each child through launch.py, so that the child's peak RSS is its own."""

    def __init__(self, env: dict) -> None:
        cmd = [sys.executable, str(ROOT / "perfbench" / "launch.py")]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], err_path: Path) -> Run:
        """Start `cmd`, wait for it, and return its exit code, wall time, peak RSS and reference passes."""
        request = {"cmd": cmd, "stderr": str(err_path), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return Run(**json.loads(self.proc.stdout.readline()))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("HQFI_TOL_SCALE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def provenance(workload, seed: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            git_sha = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted((SRC / "hqfi").glob("*.py"))}
    return {
        "python": platform.python_version(),
        "git_sha": git_sha,
        "src_sha256": canonical_sha256(sources),
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": workload.name,
        "input_size": workload.size,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hqfi" / "__init__.py").is_file():
        print(f"error: no hqfi sources at {SRC / 'hqfi'}; run from the root of an hqfi checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hqfi

    if Path(hqfi.__file__).resolve().parent != SRC / "hqfi":
        print(f"error: imported hqfi from {hqfi.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(parents=True, exist_ok=True)
    workload.prepare(WORK)
    launcher = Launcher(child_env())
    try:
        result = measure(workload, args, launcher)
    finally:
        launcher.close()
    print(json.dumps(result))
    return 0


def measure(workload, args: argparse.Namespace, launcher: Launcher) -> dict:
    """Alternate set-up and whole runs for `args.seconds`, check every output, print a summary, return the result."""
    err_path = WORK / f"{workload.name}.stderr"
    setup_cmd = [sys.executable, "-c", workload.setup_code]
    # writes the bytecode caches that an installed package already has
    launcher.run([sys.executable, "-c", "import hqfi.cli"], err_path)

    problems: list[str] = []
    setup: list[Run] = []
    plain: list[Run] = []
    traced: list[Run] = []
    layers: list[dict] = []
    hashes = set()
    attempted = failed = incomplete = 0
    trace_path = WORK / f"{workload.name}.spans.json"
    deadline = time.perf_counter() + args.seconds
    def enough() -> bool:
        return len(traced) >= MIN_TRACED_RUNS if args.trace else len(setup) >= MIN_SETUP_SAMPLES

    # set-up and whole runs alternate, so that both sample the same spells of a shared machine's speed
    while time.perf_counter() < deadline or not enough():
        setup.append(launcher.run(setup_cmd, err_path))
        if setup[-1].exit_code != 0:
            problems.append(f"set-up exited {setup[-1].exit_code}: {err_path.read_text(errors='replace')[-500:]}")
        for trace in (None, trace_path) if args.trace else (None,):
            workload.output(WORK).unlink(missing_ok=True)
            run = launcher.run(workload.command(WORK, trace), err_path)
            (traced if trace else plain).append(run)
            check = workload.check(WORK) if run.exit_code in (0, 1) else None
            if check is None:
                problems.append(f"run exited {run.exit_code}: {err_path.read_text(errors='replace')[-500:]}")
                counts = tally(run.exit_code, workload.ops, 0)
            else:
                problems += check.problems
                hashes.add(check.sha256)
                counts = tally(run.exit_code, workload.ops, check.findings, check.incomplete)
            attempted += counts[0]
            failed += counts[1]
            incomplete += counts[2]
            if trace and check is not None:
                try:
                    with open(trace_path, encoding="utf-8") as fh:
                        layers.append(layer_metrics(json.load(fh)))
                    trace_path.unlink()
                except (OSError, ValueError) as exc:
                    problems.append(f"no readable spans: {exc}")
    hashes.discard(None)
    if len(hashes) > 1:
        problems.append(f"outputs differ between runs of one seed: {sorted(hashes)}")

    run_s, n_runs = median_n([r.scaled_s for r in plain])
    setup_s, n_setup = median_n([r.scaled_s for r in setup])
    summary = {
        "run_s": (run_s, "s"),
        "records_per_s": (workload.ops / run_s, "records/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in plain), "MB"),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    if args.trace:
        per_layer = {}
        for name, unit in LAYER_UNITS.items():
            values = [m[name] for m in layers] or [0]
            if unit not in EXACT_UNITS:
                per_layer[name] = (statistics.median(values), unit)
                continue
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced runs: {values}")
            per_layer[name] = (values[0], unit)
        per_layer["trace.overhead_ratio"] = (
            statistics.median(r.scaled_s for r in traced) / run_s, "ratio"
        )
        per_layer["fail_ratio"] = summary["fail_ratio"]
        reported = per_layer
    else:
        reported = {k: v for k, v in summary.items() if k != "fail_ratio"}

    problems = list(dict.fromkeys(problems))
    prov = provenance(workload, args.seed)
    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {n_runs} runs, set-up median of {n_setup}")
    for name, (value, unit) in summary.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    passes = [r.pass_after_s for r in setup + plain + traced]
    print(
        f"  unscaled         run {statistics.median(r.wall_s for r in plain):.6g} s, "
        f"set-up {statistics.median(r.wall_s for r in setup):.6g} s, reference pass {statistics.median(passes):.6g} s"
    )
    print(f"  failed/attempted {failed}/{attempted} operations ({incomplete} did not complete)")
    print(f"  records_sha256   {' '.join(sorted(hashes)) or '-'}")
    for p in problems:
        print(f"  PROBLEM {p}")
    print("# provenance " + json.dumps(prov, sort_keys=True))

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": incomplete,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    full = {
        **result,
        "provenance": prov,
        "fail_ratio": failed / attempted,
        "records_sha256": sorted(hashes),
        "problems": problems,
        "samples": {
            "run_s": [r.scaled_s for r in plain],
            "setup_s": [r.scaled_s for r in setup],
            "peak_rss_mb": [r.peak_rss_mb for r in plain],
            "traced_run_s": [r.scaled_s for r in traced],
            "runs": [asdict(r) for r in plain],
            "setups": [asdict(r) for r in setup],
        },
    }
    out_name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (WORK / out_name).write_text(json.dumps(full, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return result


if __name__ == "__main__":
    sys.exit(main())
