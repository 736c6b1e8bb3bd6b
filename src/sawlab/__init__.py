"""sawlab: a desk-scale laboratory for self-avoiding walks on Z^d.

Exact enumeration and counting identities, the escape-matrix fixed point,
exact uniform samplers (dimerization), iterative couplings of conditioned
walks, and pattern-density statistics.

The public names below are exported lazily (PEP 562): each submodule is
imported on the first access to one of its names, so ``import sawlab``
loads none of them and a command loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS_BY_MODULE = {
    "counting": (
        "AsymptoticTable", "CountTable", "asymptotic_table", "count_ending_at",
        "count_extensions", "count_saws", "count_two_sided", "default_table",
        "endpoint_histogram", "enumerate_paths", "has_extension",
        "prefix_histogram", "truncated_two_point",
    ),
    "coupling": (
        "CouplingBatch", "CouplingSchedule", "CouplingTrace", "DecouplingStats",
        "estimate_decoupling_stats", "run_one_sided_coupling",
        "run_one_sided_couplings", "run_two_sided_coupling", "wilson_interval",
    ),
    "lattice": (
        "Path", "SignedPermutation", "TwoSidedPath", "concat", "escapes",
        "lattice_symmetries", "pattern_density", "shift", "validate",
        "validate_two_sided",
    ),
    "patterns": (
        "DensityReport", "ProperPatternResult", "ScalarEstimates",
        "build_density_report", "escape_power_estimate",
        "exact_mean_density_grid", "is_proper_internal_pattern",
        "mc_density_stats", "scalar_estimators", "two_sided_prefix_prob",
    ),
    "sampling": ("SamplerConfig", "SawSampler"),
    "spectral": (
        "EscapeMatrix", "FixedPointResult", "MeasureVector",
        "apply_escape_operator", "build_escape_matrix", "compare_to_marginal",
        "perron_fixed_point",
    ),
    "store": (
        "ArtifactWriter", "CorpusReader", "CorpusWriter", "CountCache",
        "RunConfig", "load_config",
    ),
    "verify": ("CheckResult", "run_verify"),
}

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items()
            for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
