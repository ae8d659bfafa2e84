"""In-process span tracer for the hqfi layers; used only by traced child runs.

`Tracer.install` wraps every public function of every hqfi module, and
`CampaignReport.to_json`, wherever the function is bound.  The modules import
names from each other (`bounds.c2`, `kernels.hyp2f1`, `harness.identity_lhs`),
so a wrapper placed on the defining module alone would miss most calls.

Spans live in four parallel lists (name id, start, end, parent index), in the
order the spans started, and are written out once by `dump` when the run ends.
Counters that need the arguments or the result (distinct `2F1` arguments,
distinct `c2`/`c3` points, checker samples, report bytes) are taken at the
same boundary.
"""
from __future__ import annotations

import importlib
import inspect
import json
import time

MODULES = ("quad", "specialfn", "fracint", "harmonic", "kernels", "bounds", "harness", "cli")

# span names whose arguments are collected to measure repeated work
_DISTINCT = {"specialfn.hyp2f1", "kernels.c2", "kernels.c3"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.distinct: dict[str, set] = {name: set() for name in _DISTINCT}
        self.counters: dict[str, int] = {"harmonic.check.samples": 0, "harness.report_bytes": 0}

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        span_name, start, end, parent, stack = self.span_name, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter
        post = self._post_hook(name)

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return traced

    def _post_hook(self, name: str):
        counters = self.counters
        seen = self.distinct.get(name)
        if seen is not None:
            return lambda args, result: seen.add(args)
        if name.startswith("harmonic.check_"):

            def count_samples(args, result):
                counters["harmonic.check.samples"] += result.samples_checked

            return count_samples
        if name == "harness.CampaignReport.to_json":

            def count_bytes(args, result):
                counters["harness.report_bytes"] += len(result.encode("utf-8"))

            return count_bytes
        return None

    def install(self) -> None:
        """Replace each public hqfi function by its traced wrapper in every namespace that binds it."""
        mods = [importlib.import_module("hqfi")] + [importlib.import_module(f"hqfi.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods[1:]:
            short = mod.__name__.split(".")[-1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        report_cls = mods[0].harness.CampaignReport
        report_cls.to_json = self.wrap("harness.CampaignReport.to_json", report_cls.to_json)

    def dump(self, path: str, extra: dict) -> None:
        payload = {
            "names": self.names,
            "span_name": self.span_name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "distinct": {name: len(args) for name, args in self.distinct.items()},
            "counters": self.counters,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
