"""Campaign orchestration: parameter sweeps, constant cross-checks, report emission.

`run_verify` walks a SweepConfig grid, evaluating the identity residual once
per (function, a, b, x, lam, alpha) and every applicable bound per q, theorem
and variant on top of it.  Bound families are only asserted where their
hypothesis holds: |f'|^q must be harmonically quasi-convex on [a, b].  For
q >= 1 that is the same property as for |f'| (same sublevel sets), so |f'| is
checked once per (function, interval), by `_gate`, the run's only hypothesis
check: the corpus `quasi` flags are not re-proven per run (`validate_corpus`
proves them in the tests), and the run reads none of them.  A failing pair
contributes identity records only, and summary.bound_skips counts its
(x, lam, alpha, q) points.

It runs in stages, and computes each piece of work once where it varies:

  once per run             (_setup) the functions, the tolerances scaled by
                           tol_scale, every (q, theorem, variant) bound row
                           in record order, and c1(alpha, lam) per
                           (alpha, lam)
  per (function, interval) (_gate) the hypothesis verdict
  per x                    (_identity_stage) one `bounds._identity_values`
                           call: the rhs integrals Q of each brace (free of
                           lam and alpha), per alpha the lam-free part of
                           the lhs, with all of its fractional integrals, and
                           the rhs integrals P, then both sides at every
                           (lam, alpha); it names a failed quadrature's case
  per identity record      (_identity_stage) the record
  per (interval, x)        (_bound_stage, after the identity stage of every
                           function of the interval) the f-free factors of
                           each (lam, alpha) point, two braces per row
                           (`bounds._point`), once for every function that
                           passed the gate; per such function, its sups at
                           x (`bounds._sups`)
  per identity record      (_bound_stage) the function step
                           `bounds._bound_values`, which gives every row at
                           that point, kept as one group: the record, its
                           |lhs| and the values in row order
  once per run             (_summary) the violations and the summary block,
                           in one pass over the groups, per variant of the
                           rows

The lhs, the rhs and the bounds go through the helpers `bounds.identity_lhs`,
`bounds.identity_rhs` and `bounds.bound` are built from, in the same
floating-point order, so each record holds the same bits those public
functions give at its point.  A kernel moment is computed once per point
whose brace is not empty, and only the memos in `kernels` (one entry per
2F1-level value of the moments) outlive a run.

`run_constants` puts the closed-form kernel moments next to their quadrature
oracles; `run_checkfn` exposes the convexity checkers over corpus names or
arithmetic expressions in x (Python syntax, `^` as `**`, ln/exp/sqrt).  All
three return plain dicts/records so the CLI can serialize them; runs are
deterministic given the config, apart from the generated_at timestamp: the
UTC time from `time.time_ns`, in the `datetime.isoformat` shape (`_utc_isoformat`).

The bound records of `run_verify` are a sized iterable over those groups
(`_BoundRecords`), which builds each record dict as iteration reaches it;
`CampaignReport.to_payload` gives them as a list.  A record's verdict,
slack = bound - |lhs| and holds = slack >= -tol_slack*tol_scale, is decided
in one place, `bounds._verdicts`, which `_BoundRecords.groups` calls once
per group; the record dicts, the JSON writer and `_summary` (so the
violations, the summary and the CLI's exit code) all read that iterator.

`CampaignReport.to_json` writes the exact bytes of
`json.dumps(payload, sort_keys=True, indent=2) + "\n"` for every report: it
is the join of `CampaignReport.json_chunks`, the one encoder, which yields
the report a record or a group at a time so the CLI can write it as it is
encoded.  It picks the writer of each value by the value's type and shape,
never by its key.  The grouped bound records write themselves, each text
once where it varies: each row's q, theorem and variant, and each
coordinate (a, b, x, lam, alpha, function), once per run; a group's residual
and |lhs| once per group; and the bound, its slack and holds once per
distinct bound value of the group.  Values repeat within a group: corrected
T23 has kernel exponent 1 and c1 power 0, so it is one number at every q,
corrected T22 at q = 1 equals it, and corrected T24 at q = 2 equals
corrected T22 at q = 2; where a function's two sups are equal, more rows
coincide (on the benchmark's dense sweep, 10,820 of 19,800 bound values are
distinct within their group).  The caches key each value as `_cached_text`
does, which keeps apart what a dict would merge but JSON writes apart: 0.0
and -0.0, and 1.0 and 1.  A non-empty list of flat records, dicts whose
values are all exact JSON scalars, is laid out here with one call of the C
encoder per record (`_record_chunks`), not by the pure-Python `indent=2`
path, which holds one string per token; a non-empty list of exact ints, as
`violations` is, is written in slices of 1,024 (`_int_chunks`); every other
value goes through `indent=2` whole.
`CampaignReport.csv_chunks` yields the CSV a line at a time in the same way.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import time
from collections import namedtuple
from collections.abc import Callable, Iterator

from .bounds import _SLACK_TOL, Variant, _bound_values, _identity_values, _point, _rows, _sups, _verdicts
from .harmonic import (
    IntervalDomain,
    ScalarFunction,
    _Record,
    abs_derivative_power,
    check_harmonically_convex,
    check_harmonically_quasiconvex,
    corpus,
)
from .kernels import _check_args, c1, c2, c3, kernel_oracle
from .quad import _ABS_TOL, _REL_TOL

__all__ = [
    "TOOL_VERSION",
    "SweepConfig",
    "CampaignReport",
    "variants_for",
    "run_verify",
    "run_constants",
    "run_checkfn",
]

TOOL_VERSION = "0.2.0"

# the keywords and base values of the sweep's quadrature tolerances, which the run scales by tol_scale
_QUAD_TOLS = {"abs_tol": _ABS_TOL, "rel_tol": _REL_TOL}

_X_MODES = ("h_point", "grid", "explicit")
_VARIANT_SELECTORS = ("as_stated", "symmetric_corrected", "both")
_WHICH = ("c1", "c2", "c3", "all")
_CHECK_MODES = ("quasi", "convex")

_CSV_COLUMNS = (
    "kind",
    "function",
    "a",
    "b",
    "x",
    "lam",
    "alpha",
    "q",
    "theorem",
    "variant",
    "lhs_abs",
    "bound",
    "slack",
    "holds",
    "identity_residual",
    "lhs",
    "rhs",
    "residual",
    "residual_scaled",
    "ok",
)


# `json.dumps(..., indent=2)` runs the pure-Python encoder, which keeps one small
# string per token until its final join: about a million for a 20k-record
# report.  `_record_chunks` and `_BoundRecords.json_chunks` lay out the record
# lists themselves, a record or a group at a time.  A flat record is one call
# of the C encoder, whose item separator puts each field on its own line at
# the depth `indent=2` gives a field of a top-level list item.
_FIELDS = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
_JSON_SCALARS = (str, int, float, bool, type(None))


def _scalar_text(value) -> str:
    """The JSON text of one scalar of a bound record: the repr of a finite float, else the encoder's text."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _cached_text(cache: dict, value) -> str:
    """`_scalar_text(value)`, made once per key of cache; only values of one JSON text share a key.

    Equal floats have one text unless they are zeros, so a nonzero float is
    its own key.  0.0 and -0.0, or 1.0, 1 and True, are equal as dict keys
    but written apart, so any other value is keyed by its type and repr.
    """
    key = value if type(value) is float and value else (type(value), repr(value))
    if key not in cache:
        cache[key] = _scalar_text(value)
    return cache[key]


def _is_record(item) -> bool:
    """Whether item is a flat record: a non-empty dict whose values are all exact JSON scalars."""
    return type(item) is dict and bool(item) and all(type(value) in _JSON_SCALARS for value in item.values())


def _record_chunks(records: list) -> Iterator[str]:
    """A non-empty top-level list of flat records, laid out as `indent=2` does at that depth, one chunk per record."""
    sep = "["
    for record in records:
        yield f"{sep}\n    {{\n      {_FIELDS.encode(record)[1:-1]}\n    }}"
        sep = ","
    yield "\n  ]"


def _int_chunks(values: list) -> Iterator[str]:
    """A non-empty top-level list of exact ints, laid out as `indent=2` does, 1,024 items per chunk.

    `str` of an int is its JSON text.  Only one slice's item strings live at a
    time; `indent=2`, like one C-encoder call, holds a string per item.
    """
    sep = "[\n    "
    for start in range(0, len(values), 1024):
        yield sep + ",\n    ".join(map(str, values[start : start + 1024]))
        sep = ",\n    "
    yield "\n  ]"


class _BoundRecords:
    """The bound records of a run, kept as one group per identity record.

    A group is (identity record, |lhs|, the bound values
    `bounds._bound_values` gives at that point, in row order), and every
    group has one value per row.  `groups` is the one place a group's slacks
    and verdicts are made, by `bounds._verdicts` at the run's slack
    tolerance; iteration, `json_chunks` and `_summary` all read them there.
    The view has `len` and iteration, which yields a fresh dict per record;
    `CampaignReport.to_payload` gives the records as a list.  Only
    `json_chunks` writes its text.
    """

    __slots__ = ("rows", "_groups", "_slack_tol")

    def __init__(self, rows: tuple, groups: list, slack_tol: float) -> None:
        self.rows, self._groups, self._slack_tol = rows, groups, slack_tol

    def __len__(self) -> int:
        return len(self._groups) * len(self.rows)

    def groups(self) -> Iterator[tuple]:
        """Each group in record order as (identity record, |lhs|, values, slacks, holds), one entry per row."""
        tol = self._slack_tol
        for ident, lhs_abs, values in self._groups:
            yield (ident, lhs_abs, values, *_verdicts(values, lhs_abs, tol))

    def __iter__(self) -> Iterator[dict]:
        for ident, lhs_abs, values, slacks, holds in self.groups():
            for row, value, slack, ok in zip(self.rows, values, slacks, holds):
                yield {
                    "function": ident["function"],
                    "a": ident["a"],
                    "b": ident["b"],
                    "x": ident["x"],
                    "lam": ident["lam"],
                    "alpha": ident["alpha"],
                    "q": row.q,
                    "theorem": row.theorem,
                    "variant": row.variant,
                    "lhs_abs": lhs_abs,
                    "bound": value,
                    "slack": slack,
                    "holds": ok,
                    "identity_residual": ident["residual_scaled"],
                }

    def json_chunks(self) -> Iterator[str]:
        """The list as `indent=2` lays it out at the top level of the report, one chunk per group.

        The keys are written in sorted order.  The texts of each row's q,
        theorem and variant and of each coordinate are made once per run, a
        group's residual and |lhs| once per group, and the stretch from
        "bound" to "q" (value, holds and the group's fields) with the slack
        once per distinct value of the group, keyed as `_cached_text` keys
        (inlined, as it runs per record); the slacks and verdicts are those
        of `bounds._verdicts`.  A group with a non-finite value writes its
        floats as the encoder does.
        """
        if not self._groups:
            yield "[]"
            return
        rows = [
            (
                f'{_scalar_text(row.q)},\n      "slack": ',
                f',\n      "theorem": {_scalar_text(row.theorem)},\n      "variant": {_scalar_text(row.variant)}',
            )
            for row in self.rows
        ]
        coords = {}  # the texts of the coordinates of every group, by `_cached_text`
        sep = "["
        for ident, lhs_abs, values, slacks, holds in self.groups():
            a, alpha, b, function, lam, x = (
                _cached_text(coords, ident[key]) for key in ("a", "alpha", "b", "function", "lam", "x")
            )
            head = f'\n    {{\n      "a": {a},\n      "alpha": {alpha},\n      "b": {b},\n      "bound": '
            mid = f',\n      "function": {function},\n      "holds": '
            tail = f',\n      "identity_residual": {_scalar_text(ident["residual_scaled"])},\n      "lam": {lam},\n      "lhs_abs": {_scalar_text(lhs_abs)},\n      "q": '
            end = f',\n      "x": {x}\n    }}'
            # a finite sum means every slack, and so every value, is finite
            text = float.__repr__ if math.isfinite(sum(slacks)) else _scalar_text
            seen = {}  # per distinct value: its text from "bound" to "q": (holds included), and its slack's text
            parts = []
            for (q_slack, theorem_variant), value, slack, ok in zip(rows, values, slacks, holds):
                key = value if type(value) is float and value else (type(value), repr(value))
                if key not in seen:
                    seen[key] = f"{head}{text(value)}{mid}{'true' if ok else 'false'}{tail}", text(slack)
                stretch, slack_text = seen[key]
                parts.append(f"{sep}{stretch}{q_slack}{slack_text}{theorem_variant}{end}")
                sep = ","
            yield "".join(parts)
        yield "\n  ]"


def variants_for(selector: str) -> tuple[Variant, ...]:
    """Expand a config/CLI variant selector into the concrete sweep tuple."""
    if selector == "both":
        return (Variant.AS_STATED, Variant.SYMMETRIC_CORRECTED)
    return (Variant(selector),)


def _real(v) -> float:
    # JSON true is an int to Python, and float() reads "0.5", but neither is a number to a config
    if isinstance(v, (bool, str)):
        raise TypeError(f"a {'boolean' if isinstance(v, bool) else 'string'} is not a number")
    return float(v)


def _labels(v) -> tuple[str, ...] | str:
    if v == "all":
        return v
    # a lone label would be read as its characters, an object as its keys, and 5 as the label "5"
    if not isinstance(v, (list, tuple)) or not all(isinstance(s, str) for s in v):
        raise TypeError('functions is "all" or a list of labels')
    return tuple(v)


def _integer(v) -> int:
    if int(_real(v)) != v:  # 2.7 is an error, not 2
        raise ValueError("not an integer")
    return int(v)


# how SweepConfig.__init__ reads each field that a JSON config or a caller may give in another type
_CONVERT = {
    "intervals": lambda v: tuple((_real(a), _real(b)) for a, b in v),
    "functions": _labels,
    **dict.fromkeys(("x_values", "lambdas", "alphas", "qs"), lambda v: tuple(_real(x) for x in v)),
    **dict.fromkeys(("x_count", "checker_n", "seed"), _integer),
}


class SweepConfig(_Record):
    """Grid and tolerance settings for one verification campaign.

    `functions` is either the string "all" or a tuple of corpus labels.
    `x_mode` picks evaluation points per interval: the harmonic mean
    ("h_point"), an inclusive equispaced grid of x_count points ("grid"),
    or the literal x_values ("explicit", each value must lie inside every
    swept interval).  tol_scale multiplies tol_identity, tol_slack and the
    quadrature's own tolerances (`quad._ABS_TOL`, `quad._REL_TOL`); the CLI
    has no flag for it, so it is set in the config file alone.
    """

    __slots__ = _fields = (
        "intervals", "x_mode", "x_count", "x_values", "lambdas", "alphas", "qs", "functions",
        "variant", "seed", "tol_identity", "tol_slack", "checker_n", "tol_scale",
    )

    def __init__(
        self,
        intervals: tuple[tuple[float, float], ...] = ((1.0, 2.0),),
        x_mode: str = "h_point",
        x_count: int = 5,
        x_values: tuple[float, ...] = (),
        lambdas: tuple[float, ...] = (0.0, 1.0 / 3.0, 0.5, 1.0),
        alphas: tuple[float, ...] = (0.5, 1.0, 2.0),
        qs: tuple[float, ...] = (1.0, 2.0),
        functions: tuple[str, ...] | str = "all",
        variant: str = "symmetric_corrected",
        seed: int = 0,
        tol_identity: float = 1e-8,
        tol_slack: float = _SLACK_TOL,
        checker_n: int = 15,
        tol_scale: float = 1.0,
    ) -> None:
        self._init(
            intervals, x_mode, x_count, x_values, lambdas, alphas, qs, functions,
            variant, seed, tol_identity, tol_slack, checker_n, tol_scale,
        )
        # a JSON config can hold any type: one that does not convert is a bad value too
        for name, convert in _CONVERT.items():
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, convert(value))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{name} cannot be {value!r}: {exc}") from exc

        if not self.intervals:
            raise ValueError("need at least one interval")
        for a, b in self.intervals:
            if not (math.isfinite(a) and math.isfinite(b) and 0.0 < a < b):
                raise ValueError(f"intervals need 0 < a < b, got ({a}, {b})")
        if self.x_mode not in _X_MODES:
            raise ValueError(f"x_mode must be one of {_X_MODES}, got {self.x_mode!r}")
        if self.x_mode == "grid" and self.x_count < 2:
            raise ValueError(f"grid x_mode needs x_count >= 2, got {self.x_count}")
        if self.x_mode == "explicit" and not self.x_values:
            raise ValueError("explicit x_mode needs a non-empty x_values list")
        if not self.lambdas or any(not (math.isfinite(v) and 0.0 <= v <= 1.0) for v in self.lambdas):
            raise ValueError(f"lambdas must be a non-empty list within [0, 1], got {self.lambdas}")
        if not self.alphas or any(not (math.isfinite(v) and v > 0.0) for v in self.alphas):
            raise ValueError(f"alphas must be a non-empty list of positive reals, got {self.alphas}")
        if not self.qs or any(not (math.isfinite(v) and v >= 1.0) for v in self.qs):
            raise ValueError(f"qs must be a non-empty list of reals >= 1, got {self.qs}")
        if self.functions != "all" and not self.functions:
            raise ValueError("functions selection is empty; use \"all\" or a list of labels")
        if self.variant not in _VARIANT_SELECTORS:
            raise ValueError(f"variant must be one of {_VARIANT_SELECTORS}, got {self.variant!r}")
        for name in ("tol_identity", "tol_slack", "tol_scale"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be a positive real, got {v!r}")
        # the run uses each tolerance times tol_scale, the quadrature's too: inf would pass every check, 0 none
        quad = ((f"quadrature {key}", tol) for key, tol in _QUAD_TOLS.items())
        for name, tol in (("tol_identity", self.tol_identity), ("tol_slack", self.tol_slack), *quad):
            scaled = tol * self.tol_scale
            if not (math.isfinite(scaled) and scaled > 0.0):
                raise ValueError(f"{name} * tol_scale must be a positive finite real, got {scaled!r}")
        if self.checker_n < 2:
            raise ValueError(f"checker_n must be >= 2, got {self.checker_n}")
        # a repeated value would repeat every record of its grid points
        for name in ("intervals", "x_values", "lambdas", "alphas", "qs"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value, got {list(values)}")

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a config is a JSON object of SweepConfig fields, got {type(d).__name__}")
        unknown = sorted(set(d) - set(cls._fields))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        return cls(**d)

    def to_dict(self) -> dict:
        """Every field, in JSON shapes: each tuple, at any depth, becomes a list."""
        return {name: _as_lists(getattr(self, name)) for name in self._fields}


def _as_lists(value):
    return [_as_lists(v) for v in value] if isinstance(value, tuple) else value


class CampaignReport(
    namedtuple("CampaignReport", "version generated_at config records identity_records violations summary")
):
    """One run_verify result: records plus a self-consistent summary block."""

    __slots__ = ()

    def to_payload(self) -> dict:
        """The report as plain dicts and lists, as `json.dumps` takes it: the records become a list of dicts."""
        return {**self._asdict(), "records": list(self.records)}

    def json_chunks(self) -> Iterator[str]:
        """The text of `to_json`, in pieces: a record list one record or group at a time.

        Each value's writer is picked by its type and shape: the grouped
        bound records of `run_verify` write themselves
        (`_BoundRecords.json_chunks`), a non-empty list of flat records goes
        through `_record_chunks` and a non-empty list of exact ints through
        `_int_chunks`; any other value goes through `indent=2` whole,
        re-indented one level.
        """
        payload = self._asdict()
        sep = "{"
        for key in sorted(payload):
            value = payload[key]
            yield f"{sep}\n  {json.dumps(key)}: "
            if type(value) is _BoundRecords:
                yield from value.json_chunks()
            elif type(value) is list and value and all(map(_is_record, value)):
                yield from _record_chunks(value)
            elif type(value) is list and value and all(type(v) is int for v in value):
                yield from _int_chunks(value)
            else:
                # encoded strings hold no raw newline, so each "\n" starts a line
                yield json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
            sep = ","
        yield "\n}\n"

    def to_json(self) -> str:
        """The report as `json.dumps(payload, sort_keys=True, indent=2) + "\\n"`, byte for byte."""
        return "".join(self.json_chunks())

    def csv_chunks(self) -> Iterator[str]:
        """The text of `to_csv`, in pieces: the header, then one line per record.

        One flat table: identity rows first, then bound rows; absent fields
        stay empty so both record shapes share the header.
        """
        yield ",".join(_CSV_COLUMNS) + "\n"
        columns = _CSV_COLUMNS[1:]  # after "kind"
        for kind, records in (("identity", self.identity_records), ("bound", self.records)):
            for rec in records:
                yield f"{kind},{','.join([_csv_text(rec.get(col)) for col in columns])}\n"

    def to_csv(self) -> str:
        """The report as one flat CSV table: the join of `csv_chunks`."""
        return "".join(self.csv_chunks())


def _csv_text(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


def _select_functions(cfg: SweepConfig) -> list[ScalarFunction]:
    fns = corpus()
    if cfg.functions == "all":
        return fns
    by_label = {f.label: f for f in fns}
    missing = [name for name in cfg.functions if name not in by_label]
    if missing:
        raise ValueError(f"unknown corpus functions {missing}; available: {sorted(by_label)}")
    return [by_label[name] for name in cfg.functions]


def _x_points(cfg: SweepConfig, a: float, b: float) -> tuple[float, ...]:
    if cfg.x_mode == "h_point":
        return (2.0 * a * b / (a + b),)
    if cfg.x_mode == "grid":
        step = (b - a) / (cfg.x_count - 1)
        return tuple(a + i * step for i in range(cfg.x_count - 1)) + (b,)
    for x in cfg.x_values:
        if not a <= x <= b:
            raise ValueError(f"explicit x={x} lies outside interval [{a}, {b}]")
    return cfg.x_values


# What every (function, interval) of one run shares, worked out once from the config; c1 maps (alpha, lam) to c1
_Plan = namedtuple("_Plan", "cfg fns quad_args id_tol slack_tol rows c1")


def _setup(cfg: SweepConfig) -> _Plan:
    """Select the functions and fix the tolerances, the bound rows and the c1 values of the run.

    The functions are the selected `corpus()` entries as they stand; `_gate`
    checks the hypothesis per interval.  The identity, slack and quadrature
    tolerances are tol_identity, tol_slack and `_QUAD_TOLS`, each times
    tol_scale.
    """
    return _Plan(
        cfg=cfg,
        fns=_select_functions(cfg),
        quad_args={key: tol * cfg.tol_scale for key, tol in _QUAD_TOLS.items()},
        id_tol=cfg.tol_identity * cfg.tol_scale,
        slack_tol=cfg.tol_slack * cfg.tol_scale,
        rows=_rows(cfg.qs, variants_for(cfg.variant)),
        c1={(alpha, lam): c1(alpha, lam) for alpha, lam in itertools.product(cfg.alphas, cfg.lambdas)},
    )


def _gate(cfg: SweepConfig, f: ScalarFunction, domain: IntervalDomain) -> bool:
    """Whether the bound hypothesis holds for f on the domain, for every q at once.

    |f'|^q has the sublevel sets of |f'| for q >= 1, so one verdict on |f'| serves every q.
    """
    verdict = check_harmonically_quasiconvex(abs_derivative_power(f, 1.0), domain, n=cfg.checker_n, seed=cfg.seed)
    return not verdict.violated


def _identity_stage(plan: _Plan, f: ScalarFunction, a: float, b: float, xs: tuple[float, ...]) -> list[dict]:
    """One identity record per (x, lam, alpha), from the values `bounds._identity_values` gives at each x."""
    out = []
    for x in xs:
        for lam, alpha, lhs, rhs in _identity_values(f, a, b, x, plan.cfg.alphas, plan.cfg.lambdas, plan.quad_args):
            residual = abs(lhs - rhs)
            scaled = residual / (1.0 + abs(lhs))
            out.append(
                {
                    "function": f.label,
                    "a": a,
                    "b": b,
                    "x": x,
                    "lam": lam,
                    "alpha": alpha,
                    "lhs": lhs,
                    "rhs": rhs,
                    "residual": residual,
                    "residual_scaled": scaled,
                    "ok": scaled <= plan.id_tol,
                }
            )
    return out


def _bound_stage(plan: _Plan, a: float, b: float, xs: tuple[float, ...], gated: list) -> list:
    """One group per identity record of the gated (f, identity records) pairs, function by function.

    A group is the record, |lhs| and the bound of every row at its point.
    The f-free factors of each (x, lam, alpha) point are built once
    (`bounds._point`), one x at a time, and every gated function applies its
    own sups at that x (`bounds._sups`, `bounds._bound_values`).
    """
    if not gated:
        return []
    cfg = plan.cfg
    per_x = len(cfg.lambdas) * len(cfg.alphas)
    by_function = [[] for _ in gated]
    for i, x in enumerate(xs):
        # lam-major, then alpha: the order of the identity records at x
        points = [
            _point(a, b, x, lam, alpha, plan.rows, plan.c1[alpha, lam]) for lam in cfg.lambdas for alpha in cfg.alphas
        ]
        for (f, identity), groups in zip(gated, by_function):
            sup_a, sup_b = _sups(f, a, b, x)
            for ident, point in zip(identity[i * per_x : (i + 1) * per_x], points):
                groups.append((ident, abs(ident["lhs"]), _bound_values(point, sup_a, sup_b)))
    return [group for groups in by_function for group in groups]


def _summary(records: _BoundRecords, identity_records: list, bound_skips: int) -> tuple[list[int], dict]:
    """The violations (indices of the records that do not hold) and the summary block, in one pass over the groups.

    The slacks and verdicts are those of `_BoundRecords.groups`.  The variants are those of the rows, in order
    of first appearance, which is the sweep's variant order.
    """
    names = [row.variant for row in records.rows]
    violations = []
    by_variant = dict.fromkeys(names, 0)
    min_slack: dict[str, float | None] = dict.fromkeys(names)
    index = 0
    for _, _, _, slacks, holds in records.groups():
        for name, slack, ok in zip(names, slacks, holds):
            if not ok:
                violations.append(index)
                by_variant[name] += 1
            cur = min_slack[name]
            if cur is None or slack < cur:
                min_slack[name] = slack
            index += 1
    return violations, {
        "cases": len(records),
        "identity_cases": len(identity_records),
        "violations": len(violations),
        "violations_by_variant": by_variant,
        "identity_failures": sum(1 for r in identity_records if not r["ok"]),
        "max_identity_residual": max((r["residual_scaled"] for r in identity_records), default=0.0),
        "min_slack_by_variant": min_slack,
        "bound_skips": bound_skips,
    }


def run_verify(cfg: SweepConfig) -> CampaignReport:
    """Evaluate identity residuals and all applicable bounds over the config grid.

    Stages: `_setup` once per run, then per interval `_gate` and
    `_identity_stage` for each function and one `_bound_stage` over the
    functions that passed the gate, and `_summary` once at the end.
    """
    plan = _setup(cfg)
    groups: list = []
    identity_records: list[dict] = []
    bound_skips = 0
    points = len(cfg.lambdas) * len(cfg.alphas)
    for a, b in cfg.intervals:
        domain = IntervalDomain(a, b)
        eligible = [f for f in plan.fns if f.domain.encloses(domain)]
        if not eligible:
            raise ValueError(f"no selected function covers interval [{a}, {b}]")
        xs = _x_points(cfg, a, b)
        gated = []
        for f in eligible:
            holds = _gate(cfg, f, domain)
            if not holds:
                bound_skips += len(xs) * points * len(cfg.qs)
            identity = _identity_stage(plan, f, a, b, xs)
            identity_records += identity
            if holds:
                gated.append((f, identity))
        groups += _bound_stage(plan, a, b, xs, gated)
    records = _BoundRecords(plan.rows, groups, plan.slack_tol)
    violations, summary = _summary(records, identity_records, bound_skips)
    return CampaignReport(
        version=TOOL_VERSION,
        generated_at=_utc_isoformat(time.time_ns()),
        config=cfg.to_dict(),
        records=records,
        identity_records=identity_records,
        violations=violations,
        summary=summary,
    )


def _utc_isoformat(ns: int) -> str:
    """UTC time `ns` nanoseconds after the epoch as `datetime.isoformat` writes it; no fraction at 0 microseconds."""
    seconds, micros = divmod(ns // 1000, 1_000_000)
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + (f".{micros:06d}" if micros else "") + "+00:00"


def _delta_block(closed: float, oracle: float) -> dict:
    abs_delta = abs(closed - oracle)
    return {
        "closed": closed,
        "oracle": oracle,
        "abs_delta": abs_delta,
        "rel_delta": abs_delta / max(abs(oracle), 1e-300),
    }


def run_constants(alpha: float, lam: float, q: float, r: float, which: str = "all") -> dict:
    """Closed-form c1/c2/c3 next to their quadrature oracles, with deltas.

    All of (alpha, lam, q, r) are validated whichever moments are asked for.
    The oracles are `kernel_oracle` at endpoints (u, v): (1, 1) for c1, where
    the denominator is 1, (r, 1) for c2 and (1, r) for c3.  Both normalizing
    prefactors are 1 at those endpoints, so each oracle integral compares
    directly against its closed form.
    """
    if which not in _WHICH:
        raise ValueError(f"which must be one of {_WHICH}, got {which!r}")
    _check_args(alpha, lam, q, r)
    results = {}
    if which in ("c1", "all"):
        results["c1"] = _delta_block(c1(alpha, lam), kernel_oracle(alpha, lam, 1.0, 1.0, 1.0))
    if which in ("c2", "all"):
        results["c2"] = _delta_block(c2(alpha, lam, q, r), kernel_oracle(alpha, lam, q, r, 1.0))
    if which in ("c3", "all"):
        results["c3"] = _delta_block(c3(alpha, lam, q, r), kernel_oracle(alpha, lam, q, 1.0, r))
    return {"alpha": alpha, "lam": lam, "q": q, "r": r, "which": which, "results": results}


# --- checkfn: corpus lookup plus Python arithmetic in x or u, `^` read as `**` ---
_FUNCS: dict[str, Callable[[float], float]] = {"ln": math.log, "exp": math.exp, "sqrt": math.sqrt}
_GRAMMAR = f"use x or u, numbers, + - * / ^ ( ) and {', '.join(_FUNCS)}"


def _compile(text: str) -> Callable[[float], float]:
    import ast  # here, not at the top: no other command parses Python, and ast is slow to import

    ops = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv, ast.Pow: pow}

    def closure(node: ast.AST) -> Callable[[float], float]:
        match node:
            case ast.Constant(v) if type(v) in (int, float):
                val = float(str(v))  # via str, an integer past the float range reads as inf
                return lambda u: val
            case ast.Name("x" | "u"):
                return lambda u: u
            case ast.UnaryOp(ast.USub(), operand):
                inner = closure(operand)
                return lambda u: -inner(u)
            case ast.BinOp(left, op, right) if type(op) in ops:
                op, left, right = ops[type(op)], closure(left), closure(right)
                return lambda u: op(left(u), right(u))
            case ast.Call(ast.Name(name), [arg], []) if name in _FUNCS:
                fn, inner = _FUNCS[name], closure(arg)
                return lambda u: fn(inner(u))
        raise ValueError(f"{ast.unparse(node)!r} is not allowed: {_GRAMMAR}")

    source = " ".join(text.split()).replace("^", "**")  # newlines and tabs too are just blanks
    try:
        if not source.isascii() or "," in source:  # Python reads a fullwidth x as x, and ln(x,) as ln(x)
            raise SyntaxError("only ASCII characters and no commas")
        root = closure(ast.parse(source, mode="eval").body)
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:  # too deep: Recursion- or MemoryError
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from exc

    def value(u: float) -> float:
        try:
            return float(root(u))  # float() raises TypeError on a complex value
        except (ArithmeticError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"expression {text!r} has no real value at u = {u!r}: {exc}") from exc

    return value


def _resolve_function(name_or_expr: str, domain: IntervalDomain) -> ScalarFunction:
    for f in corpus():
        if f.label == name_or_expr:
            return f
    return ScalarFunction(name_or_expr, domain, _compile(name_or_expr))


def run_checkfn(fn: str, lo: float, hi: float, n: int, mode: str, seed: int = 0) -> dict:
    """Run a convexity checker over a corpus function or parsed expression."""
    if mode not in _CHECK_MODES:
        raise ValueError(f"mode must be one of {_CHECK_MODES}, got {mode!r}")
    domain = IntervalDomain(lo, hi)
    f = _resolve_function(fn, domain)
    check = check_harmonically_quasiconvex if mode == "quasi" else check_harmonically_convex
    verdict = check(f, domain, n=n, seed=seed)
    return {
        "function": f.label,
        "domain": [domain.lo, domain.hi],
        "mode": mode,
        "n": n,
        "seed": seed,
        "status": verdict.status,
        "witness": list(verdict.witness) if verdict.witness is not None else None,
        "samples_checked": verdict.samples_checked,
    }
