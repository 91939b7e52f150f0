"""High-field pure dephasing for arbitrary coupling sets.

With the flip-flop term dropped, the bath Hamiltonian is diagonal and the
coherence factor over the fully mixed spin-3/2 bath is an exact product,

    phi(t) = prod_k (1/4) sum_m exp(-i A_k m t / hbar)
           = prod_k (1/2) [cos(A_k t / 2 hbar) + cos(3 A_k t / 2 hbar)],

independent of the magnetic field. Every factor is real, so the product is
a sum of real log-magnitudes plus a sign parity; bath sizes ~1e6 then do not
underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .material import HBAR_UEV_NS, CouplingSet


@dataclass
class DephasingTrace:
    times: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class T2Fit:
    t2_star_ns: float
    rms_residual: float


def dephasing_factor(couplings: CouplingSet, times) -> DephasingTrace:
    """Exact bath coherence factor (real) on a time grid."""
    a_k = np.asarray(couplings.a_k, dtype=np.float64)
    if np.any(a_k <= 0):
        raise ValueError("all couplings must be positive")
    times = np.asarray(times, dtype=np.float64)
    # Identical couplings share one factor, raised to their multiplicity.
    values, counts = np.unique(a_k, return_counts=True)
    odd = counts % 2 == 1

    phi = np.empty(len(times))
    # At most 2^20 elements (or one row) per temporary. Larger ones raise
    # glibc's mmap threshold, so later calls keep them on the heap and peak RSS
    # grows with the number of calls. Each row sums over every value, so the
    # chunk size changes no bit of phi.
    chunk = max(1, (1 << 20) // max(1, len(values)))
    for i0 in range(0, len(times), chunk):
        x = np.outer(times[i0 : i0 + chunk], values) / HBAR_UEV_NS
        f = 0.5 * (np.cos(0.5 * x) + np.cos(1.5 * x))
        # Pairwise float64 sums along the contiguous axis, never BLAS, so the
        # result does not depend on the BLAS thread count. log 0 = -inf gives 0.
        with np.errstate(divide="ignore"):
            log_mag = np.sum(counts * np.log(np.abs(f)), axis=1)
        negative = np.count_nonzero((f < 0) & odd, axis=1) % 2 == 1
        phi[i0 : i0 + chunk] = np.where(negative, -1.0, 1.0) * np.exp(log_mag)
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
