"""Exact quantile pairs of finite discrete distributions and seeded Monte
Carlo verification of how their sample versions behave in the long run:
convergence where the left and right quantiles agree, persistent oscillation
between them where they do not.

The public names below load their submodule on first use (PEP 562), so
``import quantile_limits`` imports no numpy and ``import quantile_limits.cli``
runs the CLI module before anything else of the package."""

import importlib

_SUBMODULE_NAMES = {
    "berry_esseen": (
        "BEParams",
        "PhiOfK",
        "be_bound",
        "bernoulli_moments",
        "interval_prob_bounds",
        "phi_of_k",
        "std_normal_cdf",
    ),
    "distributions": (
        "DiscreteDistribution",
        "QuantilePair",
        "bernoulli",
        "fair_coin",
        "from_spec",
        "gapped_example",
        "make_discrete",
        "point_mass",
    ),
    "empirical": ("EmpiricalSample", "gc_distance"),
    "errors": ("QuantileLimitsError",),
    "simulate": (
        "SimConfig",
        "SwitchStats",
        "Trajectory",
        "block_event_experiment",
        "block_schedule",
        "derive_seed",
        "deviation_experiment",
        "gap_interior_hits",
        "gc_path",
        "report_to_json_bytes",
        "run_replicated",
        "run_trajectory",
        "sample_stream",
        "sandwich_check",
        "switch_stats",
        "write_trajectory_csv",
    ),
    "transforms": (
        "TransformSpec",
        "binarize",
        "binarize_value",
        "collapse_shift",
        "collapse_shift_value",
        "gap_spec",
    ),
}
_MODULE_OF = {name: mod for mod, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        mod = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{mod}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
