"""Compton-scale electron dynamics driven by band-limited zero-point radiation."""

from .analysis import (
    EnsembleStats,
    TransientFit,
    ensemble_stats,
    fit_decay_rate,
    transition_time_from_fit,
)
from .constants import (
    DerivedConstants,
    FundamentalConstants,
    codata,
    derive_constants,
    load_constants,
)
from .dynamics import (
    CharacteristicRoots,
    DiracFreeParticle,
    FastMotionParams,
    Trajectory,
    characteristic_roots,
    dirac_position_amplitude,
    dirac_velocity,
    integrate_transient,
    rk4_transfer_max_rel_err,
    stationary_mean_z2,
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
