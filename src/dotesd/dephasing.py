"""High-field pure dephasing for arbitrary coupling sets.

With the flip-flop term dropped, the bath Hamiltonian is diagonal and the
coherence factor over the fully mixed spin-3/2 bath is an exact product,

    phi(t) = prod_k (1/4) sum_m exp(-i A_k m t / hbar)
           = prod_k f(x_k),  f(x) = cos(x) cos(x/2),  x_k = A_k t / hbar,

independent of the magnetic field. Every factor is real, so the product is
a sum of real log-magnitudes plus a sign parity; bath sizes ~1e6 then do not
underflow.

The log-sum is split by the largest argument of each distinct coupling,
y_k = A_k max|t| / hbar:

- y_k <= _SERIES_X: log f(x) = sum_j c_j x^(2j) with c_j = l_j (1 + 4^-j),
  where l_j = -1/2, -1/12, -1/45, ... are the Taylor coefficients of
  log cos (Bernoulli numbers). Summed over these couplings the log-sum is a
  polynomial in (t/T)^2, T the power of two above max|t|, whose
  coefficients are the moments c_j sum_k n_k (A_k T / hbar)^(2j), with n_k
  the multiplicity. That costs O(K J + M J) for K couplings and M times, not
  O(K M) cos and log calls. Every c_j is negative, so nothing cancels, and
  each factor is positive, so it adds nothing to the sign.
- y_k > _SERIES_X: cos and log on every (time, coupling) pair, with the
  sign parity of the negative factors.

Truncation: |c_(j+1) / c_j| <= 4/pi^2, so the terms past J add at most
|c_(J+1)| X^(2J) / (|c_1| (1 - 4 X^2/pi^2)) of the first term to each
log f. For X = 0.25 and J = 10 that is 6.6e-18, below 2^-53. t/T is exact
and every scaled argument A_k T / hbar is below 2X, so no moment
overflows; a moment underflows only where its term cannot change a bit of
phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .material import HBAR_UEV_NS, CouplingSet

# c_j = l_j (1 + 4^-j) for j = 1..10: -5/8, -17/192, -13/576, ...
_SERIES_COEFFS = (
    -0.625,
    -0.08854166666666667,
    -0.022569444444444444,
    -0.006772383432539683,
    -0.002189084545855379,
    -0.0007387832838136657,
    -0.0002565962344763188,
    -9.099103758257126e-05,
    -3.277942731786953e-05,
    -1.1956467114742352e-05,
)
_SERIES_X = 0.25  # rad: the largest argument summed through the series


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
    rates = values / HBAR_UEV_NS
    t_max = float(np.max(np.abs(times), initial=0.0))
    near = rates * t_max <= _SERIES_X

    # Series couplings: scale is T of the module docstring, capped below
    # overflow.
    scale = math.ldexp(1.0, min(math.frexp(t_max)[1], 1023))
    y2 = (rates[near] * scale) ** 2
    power = counts[near].astype(np.float64)
    moments = []
    for c in _SERIES_COEFFS:
        power *= y2
        moments.append(c * float(np.sum(power)))
    s = (times / scale) ** 2
    log_mag = np.zeros(len(times))
    for moment in reversed(moments):
        log_mag += moment
        log_mag *= s

    far, far_counts = values[~near], counts[~near]
    odd = far_counts % 2 == 1
    negative = np.zeros(len(times), dtype=bool)
    # At most 2^20 elements (or one row) per temporary. Larger ones raise
    # glibc's mmap threshold, so later calls keep them on the heap and peak RSS
    # grows with the number of calls. Each row sums over every far value, so
    # the chunk size changes no bit of phi.
    chunk = max(1, (1 << 20) // max(1, len(far)))
    for i0 in range(0, len(times), chunk):
        rows = slice(i0, i0 + chunk)
        x = np.outer(times[rows], far) / HBAR_UEV_NS
        f = 0.5 * (np.cos(0.5 * x) + np.cos(1.5 * x))
        # Pairwise float64 sums along the contiguous axis, never BLAS, so the
        # result does not depend on the BLAS thread count. log 0 = -inf gives 0.
        with np.errstate(divide="ignore"):
            log_mag[rows] += np.sum(far_counts * np.log(np.abs(f)), axis=1)
        negative[rows] = np.count_nonzero((f < 0) & odd, axis=1) % 2 == 1
    phi = np.where(negative, -1.0, 1.0) * np.exp(log_mag)
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
    # Pairwise sums, not BLAS dot products: the fit keeps its bits for every
    # BLAS thread count.
    denom = float(np.sum(x * x))
    beta = -float(np.sum(x * y)) / denom  # 1/T2*^2
    if beta <= 0:
        raise ValueError("no Gaussian decay in the fit window")
    resid = y + beta * x
    return T2Fit(
        t2_star_ns=1.0 / math.sqrt(beta),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
    )
