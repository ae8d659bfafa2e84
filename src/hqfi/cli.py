"""Command-line front end: verify / constants / checkfn.

Exit codes: 0 = ran with no unexpected violations; 1 = unexpected violations
(identity failures, corrected-variant bound violations, or as_stated
violations without --expect-violations); 2 = configuration or domain errors;
3 = numerical failure (quadrature non-convergence, or a float overflow or
division by zero).

`verify` reads an optional JSON config (SweepConfig schema) and lets a flag
override every field but tol_scale, which has no flag (flag wins).  The
report goes to stdout or --out, as canonical JSON or a flat CSV, written as
it is encoded, record by record.  Nothing is read from the environment: a
run is fixed by its command line and its config.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable

from .harness import _CHECK_MODES, _WHICH, _X_MODES, SweepConfig, run_checkfn, run_constants, run_verify
from .quad import QuadratureError

__all__ = ["build_parser", "main"]

_VARIANT_FLAG = {"corrected": "symmetric_corrected", "verbatim": "as_stated", "both": "both"}
# verify flags whose argparse dest is the SweepConfig key they override
_SAME_NAME_FLAGS = (
    "x_mode", "x_count", "x_values", "lambdas", "alphas", "qs", "seed",
    "tol_identity", "tol_slack", "checker_n",
)


def _floats(text: str) -> tuple[float, ...]:
    vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not vals:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")
    return vals


def _interval(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"expected LO:HI, got {text!r}")
    return (float(lo), float(hi))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqfi",
        description="Evaluate a weighted fractional identity and its bound families over parameter sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a sweep campaign and emit a report")
    verify.add_argument("--config", help="JSON file with SweepConfig fields")
    verify.add_argument("--variant", choices=sorted(_VARIANT_FLAG), help="bound variant(s) to sweep")
    verify.add_argument("--format", choices=("json", "csv"), default="json", help="report format (default json)")
    verify.add_argument("--out", help="write the report here instead of stdout")
    verify.add_argument(
        "--expect-violations",
        action="store_true",
        help="as_stated violations are anticipated; do not fail the run for them",
    )
    verify.add_argument("--interval", action="append", type=_interval, metavar="A:B", help="sweep interval (repeatable)")
    verify.add_argument("--x-mode", choices=_X_MODES)
    verify.add_argument("--x-count", type=int, help="grid-mode point count")
    verify.add_argument("--x-values", type=_floats, metavar="X1,X2,...", help="explicit-mode evaluation points")
    verify.add_argument("--lambdas", type=_floats, metavar="L1,L2,...")
    verify.add_argument("--alphas", type=_floats, metavar="A1,A2,...")
    verify.add_argument("--qs", type=_floats, metavar="Q1,Q2,...")
    verify.add_argument("--functions", help='comma-separated corpus labels, or "all"')
    verify.add_argument("--seed", type=int, help="checker sampling seed")
    verify.add_argument("--tol-identity", type=float)
    verify.add_argument("--tol-slack", type=float)
    verify.add_argument("--checker-n", type=int)

    constants = sub.add_parser("constants", help="closed-form kernel moments vs quadrature oracles")
    constants.add_argument("--alpha", type=float, required=True)
    constants.add_argument("--lambda", dest="lam", type=float, required=True)
    constants.add_argument("--q", type=float, required=True)
    constants.add_argument("--r", type=float, required=True)
    constants.add_argument("--which", choices=_WHICH, default="all")

    checkfn = sub.add_parser("checkfn", help="convexity checker over a corpus name or expression")
    checkfn.add_argument(
        "--fn",
        required=True,
        help="corpus label or expression in x (e.g. 'x*ln(x)'); write one that starts with a minus as --fn=-x",
    )
    checkfn.add_argument("--domain", type=_interval, required=True, metavar="LO:HI")
    checkfn.add_argument("--n", type=int, default=20, help="equispaced grid count in 1/u (default 20)")
    checkfn.add_argument("--mode", choices=_CHECK_MODES, default="quasi")
    checkfn.add_argument("--seed", type=int, default=0)

    return parser


def _verify_config(args: argparse.Namespace) -> SweepConfig:
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            base = SweepConfig.from_dict(json.load(fh))
    else:
        base = SweepConfig()
    merged = base.to_dict()
    if args.variant is not None:
        merged["variant"] = _VARIANT_FLAG[args.variant]
    if args.interval:
        merged["intervals"] = args.interval
    if args.functions is not None:
        merged["functions"] = "all" if args.functions == "all" else tuple(
            tok.strip() for tok in args.functions.split(",") if tok.strip()
        )
    for key in _SAME_NAME_FLAGS:
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    return SweepConfig.from_dict(merged)


def _emit(chunks: Iterable[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _verify_config(args)
    report = run_verify(cfg)  # before --out is opened, so a run that fails writes no file
    # the report is written as it is encoded and never held whole
    _emit(report.json_chunks() if args.format == "json" else report.csv_chunks(), args.out)
    by_variant = report.summary["violations_by_variant"]
    unexpected = report.summary["identity_failures"] > 0
    unexpected = unexpected or by_variant.get("symmetric_corrected", 0) > 0
    if not args.expect_violations:
        unexpected = unexpected or by_variant.get("as_stated", 0) > 0
    return 1 if unexpected else 0


def _cmd_constants(args: argparse.Namespace) -> int:
    report = run_constants(args.alpha, args.lam, args.q, args.r, args.which)
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_checkfn(args: argparse.Namespace) -> int:
    lo, hi = args.domain
    report = run_checkfn(args.fn, lo, hi, args.n, args.mode, seed=args.seed)
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    # the verdict is data, not a failure signal
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "constants":
            return _cmd_constants(args)
        return _cmd_checkfn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
