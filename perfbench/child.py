"""One benchmark child process.

    python3 perfbench/child.py [--trace SPANS] verify HQFI_VERIFY_ARGS...
    python3 perfbench/child.py [--trace SPANS] constants POINTS_JSON OUT_JSON

`verify` hands its arguments to `hqfi.cli.main`, as the `hqfi` command does.
`constants` runs `hqfi.run_constants` at every (alpha, lam, q, r) point of
POINTS_JSON in this one process and writes the results, or the error a point
raised, to OUT_JSON.  With `--trace`, every public hqfi function is wrapped
before the work starts and the spans go to SPANS when it ends.  The exit code
is the one `hqfi` would give.
"""
from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def _constants(points_path: str, out_path: str) -> int:
    from hqfi import run_constants

    with open(points_path, encoding="utf-8") as fh:
        points = json.load(fh)
    results = []
    for alpha, lam, q, r in points:
        try:
            results.append(run_constants(alpha, lam, q, r))
        except (ValueError, RuntimeError) as exc:  # QuadratureError is a RuntimeError
            results.append({"alpha": alpha, "lam": lam, "q": q, "r": r, "error": f"{type(exc).__name__}: {exc}"})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, sort_keys=True)
    return 0


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    t0 = time.perf_counter()
    import hqfi.cli

    import_s = time.perf_counter() - t0
    tracer = None
    if trace_path is not None:
        tracer = Tracer()
        tracer.install()
    if argv[:1] == ["verify"]:
        code = hqfi.cli.main(argv)
    elif argv[:1] == ["constants"] and len(argv) == 3:
        code = _constants(argv[1], argv[2])
    else:
        print(f"usage: {__doc__}", file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.dump(trace_path, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
