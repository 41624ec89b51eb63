"""Compton-scale electron dynamics driven by band-limited zero-point radiation."""

from .analysis import (
    EnsembleStats,
    TransientFit,
    ensemble_stationary_variance,
    ensemble_stats,
    fit_decay_rate,
    oscillations_during_transition,
    transition_time_from_fit,
)
from .constants import (
    DerivedConstants,
    FundamentalConstants,
    SimUnits,
    codata,
    derive_constants,
    from_sim_units,
    load_constants,
    sim_units,
    to_sim_units,
)
from .dynamics import (
    CharacteristicRoots,
    DiracFreeParticle,
    FastMotionParams,
    Trajectory,
    characteristic_roots,
    dirac_position_amplitude,
    dirac_velocity,
    integrate_ensemble,
    integrate_transient,
    rk4_transfer_max_rel_err,
    stationary_mean_z2,
    transient_envelope,
)
from .errors import ConfigError, NumericalInstabilityError
from .zpf import (
    ModeEnsemble,
    SpectrumModel,
    child_seeds,
    estimate_psd,
    sed_drive_spectrum,
    synthesize_ensemble,
)

__version__ = "0.1.0"
