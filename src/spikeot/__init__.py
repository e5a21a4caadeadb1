"""spikeot: exact 1D optimal transport and Poisson spike-train analysis.

The package pairs every analytic quantity with an independent computational
route (transport plans vs quantile integrals, closed forms vs Monte Carlo),
so the two can cross-validate each other.
"""

from .closed_form import (
    BinomialAbsDeviation,
    ClosedFormMoment,
    binom_abs_expectation,
    expected_distance,
    expected_distance_time_varying,
    expected_wasserstein,
    leading_order_wasserstein,
    limiting_normalized_distance,
    shifted_expected_distance,
)
from .dissimilarity import (
    BinnedPMF,
    MultiChannelTrain,
    binned_js_divergence,
    composite_wasserstein,
    directed_hausdorff,
    kfs_distance,
    spike_count_distance,
    victor_purpura,
)
from .errors import (
    ChannelMismatch,
    DegenerateLimit,
    DimensionMismatch,
    DomainError,
    EmptyTrain,
    IntensityExhausted,
    InvalidMeasure,
    InvalidSample,
    NumericalError,
    SizeMismatch,
    SpikeOTError,
)
from .features import (
    FeatureVector,
    classwise_transport_cost_features,
    hausdorff_features,
    js_bin_features,
    standardize_features,
    transport_cost_features,
)
from .measures import EmpiricalMeasure, SortedSamples, make_uniform_empirical
from .poisson import (
    MCEstimate,
    RateFunction,
    SpikeSeed,
    cumulative_intensity,
    inverse_cumulative_intensity,
    sample_kth_arrival,
    simulate_process,
)
from .sliced import PointCloud, project, sliced_w1
from .transport import (
    TransportPlan,
    northwest_corner_plan,
    partial_transport_cost,
    w1_equal_size,
    w1_general,
    w1_uniform_uniform,
)
from .validation import (
    DEFAULT_Z_THRESHOLD,
    Fig3Row,
    HarmonicSliceCheck,
    MomentComparison,
    SurfaceValidation,
    ValidationReport,
    expected_distance_comparisons,
    run_fig3_experiment,
    shift_comparisons,
    validate_expected_distance,
    validate_shift,
    validate_wasserstein_surface,
)

__version__ = "0.1.0"
