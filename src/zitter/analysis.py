"""Observables extracted from trajectories.

The transient decay rate comes from a log-linear fit of the quadrature
envelope sqrt(z^2 + (zdot/carrier)^2); the carrier frequency comes from
interpolated zero crossings. Stationary statistics take the mean and
standard error of the realizations' post-burn-in averages of z^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import DerivedConstants
from .dynamics import Trajectory


@dataclass(frozen=True)
class TransientFit:
    """Fitted envelope decay rate and carrier frequency, in units of omega_C."""

    decay_rate: float
    carrier_freq: float
    r_squared: float
    window: tuple[float, float]
    low_confidence: bool  # set when the log-envelope fit has r^2 < 0.9


@dataclass(frozen=True)
class EnsembleStats:
    n_realizations: int
    mean_z2: float   # ensemble-and-time averaged z^2 (lambda_C_bar^2 units)
    stderr: float    # standard error from between-realization scatter


def min_fit_span(dt: float) -> float:
    """Shortest window in which ``fit_decay_rate`` always finds two zero crossings.

    That holds for the fast-motion carrier sampled every ``dt``: its zero
    crossings are pi / w apart with w >= 0.998 for every admissible eps and
    dt (damped frequency sqrt(1 - eps^2/4) > 0.9987, RK4 phase lag < 1e-5),
    and the samples inside a window may start and end up to one step in.
    """
    return 2.0 * math.pi / 0.998 + 2.0 * dt


def line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line through ``(x, y)``: slope, intercept and r^2.

    Works from the centered sums sxx, sxy and syy. They are pairwise
    ``np.sum`` reductions, not BLAS dot products, so the bits do not depend
    on the BLAS thread count. r^2 = sxy^2 / (sxx syy), held to [0, 1]; it is
    0 for a constant ``y``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_mean, y_mean = float(x.mean()), float(y.mean())
    xc, yc = x - x_mean, y - y_mean
    sxx, sxy, syy = float(np.sum(xc * xc)), float(np.sum(xc * yc)), float(np.sum(yc * yc))
    slope = sxy / sxx
    r_squared = 0.0 if syy == 0.0 else min(max(sxy * sxy / (sxx * syy), 0.0), 1.0)
    return slope, y_mean - slope * x_mean, r_squared


def fit_decay_rate(traj: Trajectory, window: tuple[float, float]) -> TransientFit:
    """Fit decay rate and carrier to a decaying oscillation inside ``window``.

    The window may end up to half a step past the last sample, as a run to
    ``t_max`` does when t_max / dt rounds just below a whole number of steps;
    it then holds the same samples as a window ending at the last one.
    """
    t0, t1 = window
    times = traj.times
    if t0 < times[0] or t1 > times[-1] + 0.5 * traj.dt or t0 >= t1:
        raise ValueError(
            f"fit window [{t0}, {t1}] must lie inside the trajectory span "
            f"[{times[0]}, {times[-1]}]"
        )
    # times strictly increase, so the samples in [t0, t1] are one slice
    i0 = np.searchsorted(times, t0, side="left")
    i1 = np.searchsorted(times, t1, side="right")
    t = times[i0:i1]
    z = traj.z[i0:i1]
    v = traj.zdot[i0:i1]

    # carrier from linearly interpolated zero crossings of z
    flips = np.nonzero(np.sign(z[:-1]) * np.sign(z[1:]) < 0)[0]
    if len(flips) < 2:
        raise ValueError("too few zero crossings in window to estimate the carrier")
    t_cross = t[flips] - z[flips] * (t[flips + 1] - t[flips]) / (z[flips + 1] - z[flips])
    carrier = math.pi * (len(t_cross) - 1) / (t_cross[-1] - t_cross[0])

    envelope = np.hypot(z, v / carrier)
    if np.any(envelope <= 0.0):
        raise ValueError("quadrature envelope vanishes inside the fit window")
    slope, _, r_squared = line_fit(t, np.log(envelope))
    return TransientFit(
        decay_rate=-slope,
        carrier_freq=float(carrier),
        r_squared=r_squared,
        window=(float(t0), float(t1)),
        low_confidence=r_squared < 0.9,
    )


def transition_time_from_fit(fit: TransientFit, dc: DerivedConstants) -> float:
    """Physical 1/e time of the fitted envelope, in seconds.

    For the ideal rate eps/2 this equals 2/(tau*omega_C^2).
    """
    if fit.decay_rate <= 0.0:
        raise ValueError(f"decay rate must be positive, got {fit.decay_rate}")
    return 1.0 / (fit.decay_rate * dc.omega_C)


def ensemble_stats(per_run: Sequence[float]) -> EnsembleStats:
    """Mean of the realizations' time-averaged z^2, with its standard error."""
    per_run = np.asarray(per_run, dtype=float)
    n = len(per_run)
    if n < 2:
        raise ValueError(f"need at least 2 realizations, got {n}")
    return EnsembleStats(
        n_realizations=n,
        mean_z2=float(np.mean(per_run)),
        stderr=float(np.std(per_run, ddof=1) / math.sqrt(n)),
    )
