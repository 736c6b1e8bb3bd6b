"""sawlab: a desk-scale laboratory for self-avoiding walks on Z^d.

Exact enumeration and counting identities, the escape-matrix fixed point,
exact uniform samplers (dimerization), iterative couplings of conditioned
walks, and pattern-density statistics.
"""

from .counting import (
    AsymptoticTable,
    CountTable,
    asymptotic_table,
    count_ending_at,
    count_extensions,
    count_saws,
    count_two_sided,
    default_table,
    endpoint_histogram,
    enumerate_paths,
    has_extension,
    prefix_histogram,
    truncated_two_point,
)
from .coupling import (
    CouplingBatch,
    CouplingSchedule,
    CouplingTrace,
    DecouplingStats,
    estimate_decoupling_stats,
    run_one_sided_coupling,
    run_one_sided_couplings,
    run_two_sided_coupling,
    wilson_interval,
)
from .lattice import (
    LatticePoint,
    Path,
    SignedPermutation,
    TwoSidedPath,
    concat,
    escapes,
    lattice_symmetries,
    pattern_density,
    shift,
    validate,
    validate_two_sided,
)
from .patterns import (
    DensityReport,
    ProperPatternResult,
    ScalarEstimates,
    build_density_report,
    escape_power_estimate,
    exact_mean_density,
    exact_mean_density_grid,
    is_proper_internal_pattern,
    mc_density_stats,
    scalar_estimators,
    two_sided_prefix_prob,
)
from .sampling import (
    SamplerConfig,
    SawSampler,
    sample_escaping,
    sample_prefix_conditioned,
    sample_two_sided,
    sample_uniform,
)
from .spectral import (
    EscapeMatrix,
    FixedPointResult,
    MeasureVector,
    apply_escape_operator,
    build_escape_matrix,
    compare_to_marginal,
    perron_fixed_point,
)
from .store import (
    ArtifactWriter,
    CorpusReader,
    CorpusWriter,
    CountCache,
    RunConfig,
    load_config,
    save_config,
)
from .verify import CheckResult, run_verify

__version__ = "0.1.0"
