"""utilrank: attribute weights from simulation-run statistics.

Derives per-attribute weights for multi-attribute decisions from the
variance structure of simulated utility samples (three methods: ICW,
IGHW, IGDW), aggregates mean utilities into weighted expectations, and
ranks the alternatives. Includes a deterministic scenario simulator and
a self-verifying reproduction of the bundled reference use case.
"""

# The one version literal; pyproject.toml reads it from here. Set before
# the imports below so that modules can import it during package init.
__version__ = "0.1.0"

from .errors import (
    AllZeroDivergence,
    AllZeroEntropy,
    ColumnNotNormalized,
    DegenerateAttribute,
    DegenerateAttributeWarning,
    DimensionMismatch,
    DuplicateTriple,
    EmptyInput,
    InsufficientSamples,
    InvalidIdentifier,
    InvalidSpec,
    NegativeEntry,
    NegativeIgd,
    NonFiniteUtility,
    ParseError,
    PriorRequired,
    ReproductionMismatch,
    UtilityRangeWarning,
    UtilrankError,
    ZeroPriorSupport,
)
from .model import (
    DegenerateVariancePolicy,
    EngineConfig,
    IgdNegativePolicy,
    MomentMatrices,
    PriorProfile,
    RelativeVarianceProfile,
    SampleSet,
    ScoreVector,
    UtilitySample,
    WeightMethod,
    WeightVector,
    validate_prior,
    validate_sample_set,
)
from .moments import compute_moments, mean_and_variance
from .weighting import (
    entropy,
    icw,
    igd,
    igdw,
    ighw,
    kld,
    relative_variance,
)
from .ranking import (
    RankingReport,
    expected_utility,
    rank,
    rank_alternatives,
    round_half_away_from_zero,
)
from .scenario import Family, MomentMode, PairSpec, ScenarioSpec, generate_samples
from .io_files import (
    read_config,
    read_prior,
    read_samples,
    read_scenario_spec,
    write_config,
    write_prior,
    write_samples,
    write_scenario_spec,
)
from .pipeline import run_pipeline
from .report import Provenance, Report, emit_report
from .reproduce import REFERENCE_CONFIG, USE_CASE_SPEC, reproduce_paper, verify_report
