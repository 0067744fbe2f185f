"""spikelab: electricity spot prices with fast mean-reverting spikes.

Simulation of a continuous Ito part plus a compound-Poisson spike process,
threshold jump detection, estimation of the spike intensity and reversion
speed, and forward / strip-option pricing with spike corrections.
"""

from .model import (
    Empirical,
    ExpOU,
    Flat,
    ForwardCurve,
    GridSpec,
    JumpLaw,
    ModelSpec,
    SampledPath,
    SignedExponentialMixture,
    SpikeParams,
    TwoFactorDynamics,
    TwoFactorParams,
)
from .simulate import (
    SimulatedPath,
    child_seed,
    make_rng,
    observed_rows,
    simulate_exp_ou,
    simulate_spikes,
    simulate_spot,
    simulate_two_factor,
)
from .detect import (
    PLAIN,
    SIGN_FILTERED,
    DetectionConfig,
    DetectionReport,
    compute_threshold,
    detect_jumps,
    multipower_variation,
    regime,
)
from .estimate import (
    AsymptoticDiagnostics,
    SpikeEstimates,
    asymptotic_diagnostics,
    estimate_beta,
    estimate_jump_moments,
    estimate_lambda,
    estimate_spikes,
    oracle_estimate_beta,
)
from .pricing import (
    PriceWithCI,
    forward_spike_arith,
    forward_spike_delivery,
    forward_spike_log,
    price_strip_mc,
)
from .experiments import (
    PricingStudyConfig,
    StudyConfig,
    StudyRow,
    run_estimation_study,
    run_pricing_study,
)

__version__ = "0.1.0"
