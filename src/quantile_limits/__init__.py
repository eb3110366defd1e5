"""Exact quantile pairs of finite discrete distributions and seeded Monte
Carlo verification of how their sample versions behave in the long run:
convergence where the left and right quantiles agree, persistent oscillation
between them where they do not."""

from .berry_esseen import (
    BEParams,
    PhiOfK,
    be_bound,
    bernoulli_moments,
    interval_prob_bounds,
    phi_of_k,
    std_normal_cdf,
)
from .distributions import (
    DiscreteDistribution,
    QuantilePair,
    SolutionInterval,
    bernoulli,
    fair_coin,
    from_spec,
    gapped_example,
    make_discrete,
    point_mass,
)
from .empirical import EmpiricalSample, GCDistance, gc_distance
from .errors import (
    EmptyDistribution,
    EmptySample,
    EmptyWindow,
    InvalidInterval,
    NegativeProbability,
    NoQuantileGap,
    NonFiniteAtom,
    ParameterOutOfRange,
    ProbabilityOutOfRange,
    ProbabilitySumOutOfTolerance,
    QuantileLimitsError,
    ValueInGap,
    ValueOutsideSupport,
)
from .simulate import (
    BlockSchedule,
    SimConfig,
    SwitchStats,
    Trajectory,
    block_event_experiment,
    block_schedule,
    derive_seed,
    deviation_experiment,
    gap_interior_hits,
    gc_path,
    report_to_json_bytes,
    run_replicated,
    run_trajectory,
    sample_stream,
    sandwich_check,
    switch_stats,
    write_trajectory_csv,
)
from .transforms import (
    TransformSpec,
    binarize,
    binarize_value,
    collapse_shift,
    collapse_shift_value,
    gap_spec,
)

__version__ = "0.1.0"
