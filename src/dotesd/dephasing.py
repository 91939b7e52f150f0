"""High-field pure dephasing for arbitrary coupling sets.

With the flip-flop term dropped, the bath Hamiltonian is diagonal and the
coherence factor over the fully mixed spin-3/2 bath is an exact product,

    phi(t) = prod_k (1/4) sum_m exp(-i A_k m t / hbar)
           = prod_k (1/2) [cos(A_k t / 2 hbar) + cos(3 A_k t / 2 hbar)],

independent of the magnetic field. The product is accumulated as
log-magnitude plus phase so bath sizes ~1e6 do not underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .material import CONSTANTS, CouplingSet, PhysicalConstants


@dataclass
class DephasingTrace:
    times: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class T2Fit:
    t2_star_ns: float
    rms_residual: float


def dephasing_factor(
    couplings: CouplingSet, times, constants: PhysicalConstants = CONSTANTS
) -> DephasingTrace:
    """Exact bath coherence factor on a time grid."""
    a_k = np.asarray(couplings.a_k, dtype=np.float64)
    if np.any(a_k <= 0):
        raise ValueError("all couplings must be positive")
    times = np.asarray(times, dtype=np.float64)
    # Identical couplings share one factor, raised to their multiplicity.
    values, counts = np.unique(a_k, return_counts=True)

    phi = np.empty(len(times), dtype=np.complex128)
    hbar = constants.hbar_uev_ns
    chunk = max(1, int(4e6 / max(1, len(values))))
    for i0 in range(0, len(times), chunk):
        tc = times[i0 : i0 + chunk]
        x = np.outer(values, tc) / hbar
        f = 0.5 * (np.cos(0.5 * x) + np.cos(1.5 * x))
        mag = np.abs(f)
        with np.errstate(divide="ignore"):
            log_mag = counts[:, None] * np.where(mag > 0.0, np.log(np.maximum(mag, 1e-320)), -np.inf)
        theta = counts[:, None] * np.angle(f)
        total_log = np.sum(log_mag, axis=0, dtype=np.longdouble).astype(np.float64)
        total_theta = np.sum(theta, axis=0, dtype=np.longdouble).astype(np.float64)
        phi[i0 : i0 + chunk] = np.exp(total_log) * np.exp(1j * np.mod(total_theta, 2.0 * np.pi))
    return DephasingTrace(times=times, phi=phi)


def fit_t2star(trace: DephasingTrace) -> T2Fit:
    """Gaussian time constant from ln|phi| = -t^2/T2*^2 over |phi| in [0.05, 1]."""
    mag = np.abs(trace.phi)
    if mag.min() > math.exp(-1.0):
        raise ValueError("trace does not decay below 1/e; cannot fit T2*")
    window = mag >= 0.05
    t = trace.times[window]
    y = np.log(mag[window])
    x = t * t
    denom = float(np.dot(x, x))
    beta = -float(np.dot(x, y)) / denom  # 1/T2*^2
    if beta <= 0:
        raise ValueError("no Gaussian decay in the fit window")
    resid = y + beta * x
    return T2Fit(
        t2_star_ns=1.0 / math.sqrt(beta),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
    )


def t2star_uniform(
    n_nuclei: float, a_total_uev: float, constants: PhysicalConstants = CONSTANTS
) -> float:
    """Closed form sqrt(8/5) sqrt(N) hbar / A for uniform spin-3/2 couplings."""
    return math.sqrt(8.0 / 5.0) * math.sqrt(n_nuclei) * constants.hbar_uev_ns / a_total_uev


def sigma_from(
    n_nuclei: float, a_total_uev: float, constants: PhysicalConstants = CONSTANTS
) -> float:
    """Overhauser-field spread sigma (1/ns): sigma^2 = I(I+1)/3 A^2/(N hbar^2).

    For spin 3/2 this is 5/4 A^2/(N hbar^2), i.e. sigma = sqrt(2)/T2*.
    """
    if n_nuclei < 1:
        raise ValueError("n_nuclei must be at least 1")
    return math.sqrt(1.25 * a_total_uev**2 / n_nuclei) / constants.hbar_uev_ns
