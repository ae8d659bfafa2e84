"""Numerical verification of a weighted fractional-integral identity and the
Hadamard/Ostrowski/Simpson-type bounds it generates for functions whose
|f'|^q is harmonically quasi-convex.

Closed-form kernel constants (via the Gauss hypergeometric function) are
cross-checked against independent adaptive quadrature throughout; `hqfi
verify` sweeps the whole construction over parameter grids.

`import hqfi` loads no submodule.  The module `__getattr__` (PEP 562) imports
a public name's home module (`_HOMES`) on the first use of the name, and a
submodule such as `hqfi.kernels` on the first use of that attribute; the
value is then kept in this namespace.  So `from hqfi import c2` loads
`kernels`, `specialfn` and `quad` but not the campaign layer `harness`, and
`import hqfi.quad` loads `quad` alone.  `__version__` is
`harness.TOOL_VERSION`.
"""

# each public name and the submodule that defines it; __all__ lists them in this order
_HOMES = {
    "TOOL_VERSION": "harness",
    # quadrature
    "QuadratureError": "quad",
    "integrate": "quad",
    "integrate_singular": "quad",
    # special functions
    "gamma": "specialfn",
    "beta": "specialfn",
    "hyp2f1": "specialfn",
    "hyp2f1_series": "specialfn",
    "hyp2f1_integral": "specialfn",
    # fractional operators
    "rl_left": "fracint",
    "rl_right": "fracint",
    # convexity machinery
    "IntervalDomain": "harmonic",
    "ScalarFunction": "harmonic",
    "ConvexityVerdict": "harmonic",
    "check_harmonically_convex": "harmonic",
    "check_harmonically_quasiconvex": "harmonic",
    "abs_derivative_power": "harmonic",
    "corpus": "harmonic",
    "validate_corpus": "harmonic",
    # kernel moments
    "c1": "kernels",
    "c2": "kernels",
    "c3": "kernels",
    "kernel_oracle": "kernels",
    # identity and bounds
    "ParamPoint": "bounds",
    "Theorem": "bounds",
    "Variant": "bounds",
    "BoundReport": "bounds",
    "identity_lhs": "bounds",
    "identity_rhs": "bounds",
    "bound": "bounds",
    "evaluate_bound": "bounds",
    "specialize": "bounds",
    "ostrowski_bound": "bounds",
    # campaigns
    "SweepConfig": "harness",
    "CampaignReport": "harness",
    "run_verify": "harness",
    "run_constants": "harness",
    "run_checkfn": "harness",
}
_SUBMODULES = frozenset(_HOMES.values())

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    """Import the home module of a public name, or a submodule, on its first use, and keep the value here."""
    if name in _SUBMODULES:
        # importing a submodule binds it in its package's namespace
        __import__(f"{__name__}.{name}")
        return globals()[name]
    source = "TOOL_VERSION" if name == "__version__" else name
    home = _HOMES.get(source)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # from hqfi.<home> import <source>: with a fromlist, __import__ returns the submodule, not this package
    module = __import__(f"{__name__}.{home}", fromlist=(source,))
    value = globals()[name] = getattr(module, source)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
