"""Joint CFO/SFO estimation laboratory for a two-symbol OFDM preamble.

The package simulates a burst of two identical QPSK training symbols
through a multipath channel with carrier- and sampling-frequency
offsets, implements two grid-search estimators of the offset pair (a
cross-symbol matching estimator and a ratio-based one), evaluates the
Cramer-Rao bounds for both parameters in closed form with a numeric
cross-check, and drives deterministic Monte-Carlo sweeps that export
the comparison datasets as CSV.
"""

from .ofdm_model import (
    QPSK_ALPHABET,
    ChannelRealization,
    ImpairmentParams,
    OfdmConfig,
    PreambleObservation,
    TimeDomainFrame,
    TrainingSymbols,
    carrier_gain,
    channel_frequency_response,
    coupling_coefficient,
    demodulate,
    demodulate_frame,
    derive_rng,
    exponential_power_profile,
    generate_training_symbols,
    ici_term,
    make_config,
    noise_variance_from_snr,
    sample_channel,
    snr_stream_key,
    synthesize_frame,
    synthesize_received_symbol,
)
from .estimators import (
    DegenerateObservationError,
    EstimationResult,
    GridEvaluator,
    GridSpec,
    NonFiniteSurfaceError,
    estimate_nguyenle,
    estimate_proposed,
    make_grid,
    nguyenle_cost,
    nguyenle_observable,
    pair_residual,
    proposed_cost,
    ratio_residual,
    symbol_phase_ramp,
)
from .crb import (
    CrbPair,
    FisherComparison,
    FisherMatrix,
    SingularInformationError,
    compare_fisher,
    crb_from_fisher,
    fisher_closed_form,
    fisher_numeric_oracle,
)
from .harness import (
    ExperimentConfig,
    SweepResult,
    SweepRow,
    TrialDiagnostics,
    TrialRecord,
    aggregate,
    inspect_trial,
    make_experiment,
    run_crb_sweep,
    run_mse_sweep,
    run_noise_variance_sweep,
    run_trial,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "QPSK_ALPHABET",
    "OfdmConfig",
    "TrainingSymbols",
    "ChannelRealization",
    "ImpairmentParams",
    "TimeDomainFrame",
    "PreambleObservation",
    "make_config",
    "generate_training_symbols",
    "exponential_power_profile",
    "sample_channel",
    "channel_frequency_response",
    "synthesize_received_symbol",
    "synthesize_frame",
    "demodulate",
    "demodulate_frame",
    "coupling_coefficient",
    "ici_term",
    "carrier_gain",
    "noise_variance_from_snr",
    "derive_rng",
    "snr_stream_key",
    # estimators
    "DegenerateObservationError",
    "EstimationResult",
    "GridSpec",
    "GridEvaluator",
    "NonFiniteSurfaceError",
    "make_grid",
    "symbol_phase_ramp",
    "proposed_cost",
    "nguyenle_cost",
    "nguyenle_observable",
    "estimate_proposed",
    "estimate_nguyenle",
    "pair_residual",
    "ratio_residual",
    # bounds
    "FisherMatrix",
    "CrbPair",
    "FisherComparison",
    "SingularInformationError",
    "fisher_closed_form",
    "fisher_numeric_oracle",
    "compare_fisher",
    "crb_from_fisher",
    # harness
    "ExperimentConfig",
    "TrialRecord",
    "TrialDiagnostics",
    "SweepRow",
    "SweepResult",
    "make_experiment",
    "run_trial",
    "inspect_trial",
    "run_mse_sweep",
    "run_noise_variance_sweep",
    "run_crb_sweep",
    "aggregate",
]
