"""Compton-scale electron dynamics driven by band-limited zero-point radiation."""

from .analysis import (
    EnsembleStats,
    TransientFit,
    ensemble_stationary_variance,
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
    canonical_momentum_residual,
    characteristic_roots,
    dirac_position_amplitude,
    dirac_velocity,
    integrate_ensemble,
    integrate_transient,
    transient_envelope,
)
from .errors import ConfigError, NumericalInstabilityError
from .zpf import (
    ModeSet,
    SpectrumModel,
    child_seeds,
    estimate_psd,
    sed_drive_spectrum,
    synthesize_band,
)

__version__ = "0.1.0"
